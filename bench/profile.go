package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// cpuShares runs `go tool pprof -top` on a CPU profile and returns each
// layer's share of the flat samples, in percent.
func cpuShares(profile string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	// -unit=ms keeps every value in one unit; -nodefraction=0 and a huge
	// -nodecount keep the small nodes pprof would otherwise drop, so the
	// shares sum to 100.
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-unit=ms", "-nodefraction=0", "-nodecount=1000000", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(bytes.NewReader(out))
}

var totalRE = regexp.MustCompile(`of ([0-9.]+)ms total`)

// parseTop groups the flat column of `go tool pprof -top -unit=ms` output by
// layer (see layerOf) and returns each layer's percentage of the profile's
// total samples. Every layer in cpuLayers is present in the result.
func parseTop(r io.Reader) (map[string]float64, error) {
	var total float64
	flat := make(map[string]float64)
	header := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if m := totalRE.FindStringSubmatch(line); m != nil {
			total, _ = strconv.ParseFloat(m[1], 64)
			continue
		}
		if strings.HasPrefix(line, "flat") {
			header = true
			continue
		}
		f := strings.Fields(line)
		if !header || len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: bad flat value in %q", line)
		}
		flat[layerOf(strings.Join(f[5:], " "))] += ms
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof -top: no sample total in output")
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = 100 * flat[l] / total
	}
	return out, nil
}

// gcFuncRE matches the runtime's garbage-collector functions: marking,
// scanning, sweeping, write barriers and assists.
var gcFuncRE = regexp.MustCompile(`^runtime\.(gc|scan|mark|grey|sweep|bgsweep|bgscavenge|wbBuf|findObject|typePointers|\(\*gc|\(\*mspan\)\.(sweep|mark)|\(\*gcWork\)|\(\*mheap\)\.(freeSpan|reclaim))`)

// simLayers are the program packages reported as their own layer.
var simLayers = map[string]bool{
	"engine": true, "sim": true, "dram": true, "fabric": true, "cxl": true,
	"osb": true, "pifs": true, "tier": true, "scenario": true, "fault": true,
	"numasim": true, "trace": true, "harness": true, "memo": true,
	"report": true, "serve": true,
}

// layerOf maps a profiled function name to its layer. Go map operations
// get a layer of their own: flat samples land in the runtime's map code, not
// in the package whose maps they are, and they are often the hot spot.
func layerOf(fn string) string {
	pkg := pkgOf(fn)
	switch {
	case strings.HasPrefix(pkg, "pifsrec/internal/"):
		if l := strings.TrimPrefix(pkg, "pifsrec/internal/"); simLayers[l] {
			return l
		}
		return "other"
	case pkg == "internal/runtime/maps", pkg == "runtime" && strings.HasPrefix(fn, "runtime.map"):
		return "maps"
	case pkg == "runtime":
		if gcFuncRE.MatchString(fn) {
			return "runtime_gc"
		}
		return "runtime"
	case pkg == "syscall", pkg == "os", pkg == "net", pkg == "internal/poll",
		pkg == "internal/runtime/syscall", pkg == "internal/syscall/unix":
		return "syscall"
	case strings.HasPrefix(pkg, "internal/runtime/"), pkg == "sync", strings.HasPrefix(pkg, "sync/"), pkg == "internal/sync":
		return "runtime"
	case strings.HasSuffix(pkg, "/sha256"):
		return "sha256"
	case pkg == "encoding/json", pkg == "reflect":
		return "json"
	case strings.HasPrefix(pkg, "compress/"), pkg == "hash/crc32":
		return "compress"
	case strings.HasPrefix(pkg, "net/http"), pkg == "net/textproto", pkg == "bufio":
		return "net_http"
	}
	return "other"
}

// pkgOf returns the import path of a profiled function name such as
// "pifsrec/internal/sim.(*Engine).Run" or "runtime.mallocgc". Receivers and
// generic type arguments, which may hold other import paths, are cut first.
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
