#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments
# (see bench/README.md). Everything the build writes stays in .bench_build
# at the repository root: the Go build cache, temp files and the binary.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
