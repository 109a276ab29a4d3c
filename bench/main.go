// Command bench is the simulator's benchmark: four closed-loop workloads
// over the figure sweep, its result cache, its distributed service and the
// sharded engine, with every output checked. See README.md.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash bench/run.sh -workload sweep-cold -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -seed 1 -out runs/a1          # all four, results.json
//	bash bench/run.sh -seed 1 -trace 1 -out runs/t1 # traced pass
//	bash bench/run.sh -write-golden bench/golden/digests.txt
//
// A single-workload run prints one "workload metric value unit" line per
// metric and ends with one JSON line: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"pifsrec/bench/stats"
)

// instance is one workload's live state after set-up.
type instance interface {
	// run is the measured closed loop: it runs until the window ends, and
	// always completes its first cycle.
	run()
	// verify checks outputs that are cheaper to check after the window.
	verify()
	// report returns the pass and edit metrics and adds the workload's
	// detail metrics.
	report() (pass, edit stats.Metric)
	close()
}

type workload struct {
	name, why string
	setup     func(*bench) (instance, error)
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []workload{
	{"sweep-cold", "the full 24-experiment sweep with no cache, as users regenerate EXPERIMENTS.md; stresses the simulation layers", setupCold},
	{"sweep-memo", "fills a disk result cache, then warm sweeps and one-job edits through it; reads beside writes, the memo and harness layers", setupMemo},
	{"sweep-dist", "the sweep over HTTP from a coordinator with 2 pull workers, cold then warm; the only workload on the serve layer", setupDist},
	{"scaleout-2shard", "one 32-switch, 32-host config run at 2 shards; the only workload that drives the sharded engine's barrier and mailbox", setupScaleout},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

type options struct {
	seed    uint64
	seconds int
	traced  bool
	out     string
	work    string
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in its own child process, and writes OUT/results.json")
	var o options
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced pass: per-layer metrics, a Chrome trace and a CPU profile per workload")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for results, traces and profiles")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory for result caches")
	goldenOut := flag.String("write-golden", "", "run every experiment with no cache, write the golden digests to this file, and exit")
	flag.Parse()
	o.traced = *traceFlag == 1
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *goldenOut != "":
		err = writeGolden(*goldenOut)
	case *name == "":
		err = runAll(o)
	default:
		err = runNamed(*name, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runNamed runs one workload in this process and prints its result.
func runNamed(name string, o options) error {
	for _, wl := range workloads {
		if wl.name != name {
			continue
		}
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
		if err := os.MkdirAll(o.work, 0o755); err != nil {
			return err
		}
		res, err := runWorkload(wl, o)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := writeJSON(filepath.Join(o.out, name+".json"), res); err != nil {
			return err
		}
		printResult(name, res)
		return nil
	}
	return fmt.Errorf("unknown workload %q", name)
}

// runWorkload sets a workload up three times, runs its measured loop on the
// last set-up, checks its outputs and assembles its metrics.
func runWorkload(wl workload, o options) (stats.Workload, error) {
	g, err := parseGolden(goldenText)
	if err != nil {
		return stats.Workload{}, err
	}
	b := newBench(o.seed, time.Duration(o.seconds)*time.Second, o.traced, g, o.work)
	var inst instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		id := b.rec.begin("setup", 0, 0)
		start := time.Now()
		inst, err = wl.setup(b)
		setups = append(setups, time.Since(start).Seconds())
		b.rec.end(id)
		if err != nil {
			return stats.Workload{}, fmt.Errorf("set-up: %w", err)
		}
	}
	defer inst.close()
	// Collect the set-ups' garbage and restart the peak count, so the
	// memory metrics are the measured loop's.
	runtime.GC()
	resetPeakRSS()

	var profile string
	var prof *os.File
	if o.traced {
		profile = filepath.Join(o.out, "cpu-"+wl.name+".pprof")
		if prof, err = os.Create(profile); err != nil {
			return stats.Workload{}, err
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof.Close()
			return stats.Workload{}, err
		}
	}
	before := memSnapshot()
	b.start = time.Now()
	inst.run()
	after := memSnapshot()
	if o.traced {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return stats.Workload{}, err
		}
	}
	inst.verify()
	pass, edit := inst.report()

	res := stats.Workload{Attempted: b.attempted, Failed: b.failed(), Failures: b.failures, Detail: b.detail}
	res.Correct = res.Failed == 0
	res.Detail["failed_op_frac"] = stats.Single("ratio", "lower", float64(res.Failed)/float64(max(1, res.Attempted)))
	peak, err := rssMB("VmHWM:")
	if err != nil {
		return res, err
	}
	res.Detail["peak_rss_mb"] = stats.Single("MB", "lower", peak)
	e2e := map[string]stats.Metric{
		"setup_s": stats.Summary("s", "lower", setups),
		"pass_s":  pass,
		"edit_s":  edit,
		"rss_mb":  stats.Summary("MB", "lower", b.samples["rss"]),
	}
	for name, m := range e2e {
		def, _ := defOf(name)
		m.Unit, m.Better, m.Bound = def.Unit, def.Better, def.Bound
		e2e[name] = m
	}
	if !o.traced {
		res.Metrics = e2e
		return res, nil
	}

	// The traced pass reports the per-layer metrics; its end-to-end numbers
	// are kept as detail, since tracing slows them.
	for name, m := range e2e {
		res.Detail[name] = m
	}
	in := layerInputs{
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(max(1, b.attempted)),
	}
	if in.probeUS, err = b.probeLayers(); err != nil {
		return res, err
	}
	if in.cpu, err = cpuShares(profile); err != nil {
		return res, err
	}
	res.Metrics = b.layerMetrics(in)
	return res, writeChromeTrace(filepath.Join(o.out, "trace-"+wl.name+".json"), b.rec.closed())
}

// printResult prints every metric as "workload metric value unit", then
// the one-line JSON result.
func printResult(name string, res stats.Workload) {
	for _, k := range sortedKeys(res.Metrics) {
		m := res.Metrics[k]
		fmt.Printf("%s %s %v %s\n", name, k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(res.Detail) {
		m := res.Detail[k]
		fmt.Printf("%s detail.%s %v %s\n", name, k, m.Value, m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "%s: failed: %s\n", name, f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for k, m := range res.Metrics {
		metrics[k] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	fmt.Println(string(line))
}

// runAll runs every workload, each in its own child process, and gathers
// their results into OUT/results.json.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := stats.Results{
		Seed: o.seed, Seconds: o.seconds, Trace: o.traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads: make(map[string]stats.Workload),
	}
	var errs []error
	for _, wl := range workloads {
		cmd := exec.Command(exe, "-workload", wl.name, "-seed", fmt.Sprint(o.seed),
			"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(btoi(o.traced)), "-out", o.out, "-work", o.work)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", wl.name, err))
			continue
		}
		var res stats.Workload
		if err := readJSON(filepath.Join(o.out, wl.name+".json"), &res); err != nil {
			errs = append(errs, err)
			continue
		}
		all.Workloads[wl.name] = res
	}
	if err := all.Write(filepath.Join(o.out, "results.json")); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
