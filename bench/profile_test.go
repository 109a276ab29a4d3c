package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestParseTopFixture groups a checked-in `go tool pprof -top -unit=ms`
// listing by layer.
func TestParseTopFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof-top.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := parseTop(f)
	if err != nil {
		t.Fatal(err)
	}
	const total = 4490.0
	want := map[string]float64{
		"maps": 1690, "compress": 1060, "osb": 550, "dram": 440, "runtime_gc": 200,
		"json": 160, "sim": 110, "net_http": 80, "sha256": 70, "trace": 40,
		"runtime": 40, "syscall": 20, "fabric": 10, "harness": 10, "other": 10,
	}
	sum := 0.0
	for _, l := range cpuLayers {
		got, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing from the shares", l)
		}
		if w := 100 * want[l] / total; math.Abs(got-w) > 1e-9 {
			t.Errorf("cpu.%s = %.4f%%, want %.4f%%", l, got, w)
		}
		sum += got
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100", sum)
	}
}

func TestParseTopNeedsTotal(t *testing.T) {
	if _, err := parseTop(strings.NewReader("flat flat% sum% cum cum%\n10ms 1% 1% 10ms 1% runtime.main\n")); err == nil {
		t.Error("a listing without a sample total was accepted")
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"pifsrec/internal/sim.(*ShardedEngine).runWindow":        "sim",
		"pifsrec/internal/dlrm.(*MLP).Forward":                   "other",
		"pifsrec/internal/memo.(*Store).Get":                     "memo",
		"runtime.gcBgMarkWorker":                                 "runtime_gc",
		"runtime.(*mspan).sweep":                                 "runtime_gc",
		"runtime.wbBufFlush1":                                    "runtime_gc",
		"runtime.mallocgc":                                       "runtime",
		"runtime.mapassign_fast64":                               "maps",
		"internal/runtime/maps.(*Map).getWithKeySmall":           "maps",
		"sync.(*Mutex).Lock":                                     "runtime",
		"crypto/sha256.(*Digest).Write":                          "sha256",
		"compress/gzip.(*Writer).Write":                          "compress",
		"net/http.(*conn).serve":                                 "net_http",
		"syscall.Syscall":                                        "syscall",
		"encoding/json.Marshal":                                  "json",
		"pifsrec/internal/harness.mapIndexed[go.shape.int]":      "harness",
		"pifsrec/internal/serve.(*Coordinator).RunMissing.func1": "serve",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
