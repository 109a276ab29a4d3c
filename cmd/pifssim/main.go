// Command pifssim runs one simulation configuration and prints the
// measured counters — or, with -serve, stays up as a sweep service that
// answers experiment requests through the content-addressed result cache
// and simulates raw-config requests directly.
//
// Usage:
//
//	pifssim -scheme PIFS-Rec -model RMC4 -trace Meta -devices 8
//	pifssim -scheme Pond -model RMC2 -tracefile trace.bin
//	pifssim -scheme PIFS-Rec -scenario load.json     # open-loop tail latency
//	pifssim -experiment fig13a -cache-dir ~/.cache/pifsrec
//	pifssim -serve :8080 -cache-dir ~/.cache/pifsrec
//	pifssim -worker http://host:8080 -cache-dir ~/.cache/pifsrec
//
// -serve runs the sweep service; with workers attached it doubles as the
// coordinator of a distributed sweep, leasing cache-miss jobs to a pull
// fleet. -worker joins that fleet: lease jobs, run them through the local
// result cache, post CRC-framed results back.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"pifsrec"
	"pifsrec/internal/dlrm"
	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/serve"
)

// Connection timeouts of the -serve listener. A client that never finishes
// its headers or body, or leaves a connection idle, loses it after these.
// There is no write timeout: a cold /v1/run answers only when its sweep
// has finished, however long that takes.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveReadTimeout       = time.Minute
	serveIdleTimeout       = 2 * time.Minute
)

// newServer builds the -serve listener's server.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		ReadTimeout:       serveReadTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
}

func main() {
	scheme := flag.String("scheme", "PIFS-Rec", "Pond, Pond+PM, BEACON, RecNMP, PIFS-Rec")
	model := flag.String("model", "RMC4", "RMC1..RMC4 (Table I)")
	scale := flag.Int64("scale", 64, "row-count divisor so runs stay laptop-sized")
	kind := flag.String("trace", "Meta", "synthetic trace kind: Meta, ZF, NoL, Um, Rm")
	traceFile := flag.String("tracefile", "", "trace file (overrides -trace)")
	batches := flag.Int("batches", 2, "batches to simulate")
	devices := flag.Int("devices", 4, "CXL memory devices")
	switches := flag.Int("switches", 1, "fabric switches (PIFS-Rec only)")
	hosts := flag.Int("hosts", 1, "concurrent hosts")
	buffer := flag.Int("buffer", 512<<10, "on-switch buffer bytes (PIFS-Rec)")
	shards := flag.Int("shards", 1, "engine shards (conservative-window intra-sim parallelism; results are identical at any count and placement)")
	faults := flag.String("faults", "", "fault-injection plan (JSON file; see internal/fault)")
	scenarioFile := flag.String("scenario", "", "open-loop arrival scenario (JSON file; see internal/scenario) — adds tail-latency and goodput-under-SLO reporting")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (created if missing; sweeps re-simulate only configs the cache has never seen)")
	experiment := flag.String("experiment", "", "run one named experiment sweep instead of a single config (see pifsbench -list)")
	serveAddr := flag.String("serve", "", "listen address (e.g. :8080) for the long-lived sweep service")
	leaseTTL := flag.Duration("lease-ttl", 20*time.Second, "(-serve) how long a worker holds a leased job before it is re-issued")
	claimBudget := flag.Duration("claim-budget", 250*time.Millisecond, "(-serve) how long a job waits for a worker before the coordinator runs it locally (only gates while live workers are attached)")
	workerURL := flag.String("worker", "", "coordinator base URL (e.g. http://host:8080): run as a pull worker instead of simulating")
	workerID := flag.String("worker-id", "", "(-worker) name reported in leases and /v1/jobs/status (default hostname-pid)")
	leaseMax := flag.Int("lease-max", 4, "(-worker) jobs to lease per poll")
	poll := flag.Duration("poll", time.Second, "(-worker) idle long-poll duration at the coordinator")
	flag.Parse()

	// Flag validation fails fast with actionable messages and exit code 2
	// (usage error), before any simulation state is assembled. The cache
	// directory is probed here — a path that cannot be created or written is
	// a usage error now, not a degraded cache discovered mid-sweep.
	if *cacheDir != "" {
		store, err := memo.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pifssim:", err)
			os.Exit(2)
		}
		harness.SetStore(store)
	}

	if *serveAddr != "" && *workerURL != "" {
		fmt.Fprintln(os.Stderr, "pifssim: -serve and -worker are mutually exclusive (a worker pulls from a separate -serve process)")
		os.Exit(2)
	}

	if *serveAddr != "" {
		if *cacheDir == "" {
			// A long-lived service should memoize even without persistence:
			// repeated sweeps hit the in-memory LRU for the process lifetime.
			harness.SetStore(memo.InMemory())
		}
		lg := log.New(os.Stderr, "pifssim: ", log.LstdFlags)
		coord := serve.NewCoordinator(serve.CoordinatorConfig{
			LeaseTTL:    *leaseTTL,
			ClaimBudget: *claimBudget,
			Log:         lg,
		})
		harness.SetDistributor(coord.RunMissing)
		lg.Printf("serving on %s (cache: %s; lease-ttl %v, claim-budget %v)",
			*serveAddr, cacheDesc(*cacheDir), *leaseTTL, *claimBudget)
		if err := newServer(*serveAddr, serve.Handler(serve.Options{Coordinator: coord, Log: lg})).ListenAndServe(); err != nil {
			fmt.Fprintln(os.Stderr, "pifssim:", err)
			os.Exit(1)
		}
		return
	}

	if *workerURL != "" {
		var store *memo.Store
		if *cacheDir != "" {
			// Reuse the store probed above so the worker's cache survives
			// restarts; without -cache-dir the worker memoizes in memory for
			// its lifetime.
			store = harness.CurrentStore()
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		err := serve.RunWorker(ctx, serve.WorkerConfig{
			Coordinator: *workerURL,
			ID:          *workerID,
			Store:       store,
			LeaseMax:    *leaseMax,
			Poll:        *poll,
			Log:         log.New(os.Stderr, "pifssim: ", log.LstdFlags),
		})
		if err != nil && err != context.Canceled {
			fmt.Fprintln(os.Stderr, "pifssim:", err)
			os.Exit(1)
		}
		return
	}

	if *experiment != "" {
		// Unknown experiment ids are a usage error: enumerate the valid set
		// and exit 2 before any sweep starts.
		if err := harness.Run(*experiment, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "pifssim: unknown -experiment %q (have %v)\n", *experiment, harness.IDs())
			os.Exit(2)
		}
		if *cacheDir != "" {
			s := harness.CacheStats()
			fmt.Fprintf(os.Stderr, "pifssim: memo hits=%d misses=%d\n", s.Hits, s.Misses)
		}
		return
	}
	switch pifsrec.Scheme(*scheme) {
	case pifsrec.Pond, pifsrec.PondPM, pifsrec.BEACON, pifsrec.RecNMP, pifsrec.PIFSRec:
	default:
		fmt.Fprintf(os.Stderr, "pifssim: unknown -scheme %q (have %v)\n", *scheme, pifsrec.Schemes())
		os.Exit(2)
	}
	if *batches < 1 {
		fmt.Fprintf(os.Stderr, "pifssim: -batches %d must be at least 1\n", *batches)
		os.Exit(2)
	}
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "pifssim: -scale %d must be at least 1 (it divides the model's row counts)\n", *scale)
		os.Exit(2)
	}
	if *devices < 1 || *switches < 1 || *hosts < 1 {
		fmt.Fprintf(os.Stderr, "pifssim: -devices %d, -switches %d, and -hosts %d must all be at least 1\n",
			*devices, *switches, *hosts)
		os.Exit(2)
	}

	// Shards outside [1, component groups] buy nothing and usually mean a
	// typo'd flag — reject with the actual bound instead of silently
	// clamping. The bound comes from the engine's own defaulting
	// (Config.ComponentGroups), so zero-valued flags count what the run
	// will really assemble.
	bound := pifsrec.Config{Hosts: *hosts, Switches: *switches, Devices: *devices}
	if groups := bound.ComponentGroups(); *shards < 1 || *shards > groups {
		fmt.Fprintf(os.Stderr,
			"pifssim: -shards %d outside [1, %d]: the configuration has %d component groups (hosts + switches + devices after defaulting)\n",
			*shards, groups, groups)
		os.Exit(2)
	}

	m, err := dlrm.ModelByName(*model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pifssim: -model: %v\n", err)
		os.Exit(2)
	}
	m = m.Scaled(*scale)

	// The fault plan is validated against the topology the flags assemble
	// before anything runs, so a plan naming an unknown link or an
	// out-of-range device/channel/switch fails here with the valid range.
	var plan *pifsrec.FaultPlan
	if *faults != "" {
		var err error
		plan, err = pifsrec.LoadFaultPlan(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pifssim:", err)
			os.Exit(2)
		}
		if err := pifsrec.ValidateFaultPlan(plan, bound); err != nil {
			fmt.Fprintf(os.Stderr, "pifssim: -faults %s: %v\n", *faults, err)
			os.Exit(2)
		}
	}

	// The scenario spec is validated up front like the fault plan: a bad
	// kind, rate, or swing is a usage error before any simulation state is
	// assembled (a missing arrival-trace file still surfaces from Simulate,
	// which is where the file is first read).
	var sc *pifsrec.ScenarioSpec
	if *scenarioFile != "" {
		var err error
		sc, err = pifsrec.LoadScenario(*scenarioFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pifssim:", err)
			os.Exit(2)
		}
		if err := sc.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "pifssim: -scenario %s: %v\n", *scenarioFile, err)
			os.Exit(2)
		}
	}

	var tr *pifsrec.Trace
	if *traceFile != "" {
		tr, err = pifsrec.LoadTrace(*traceFile)
	} else {
		tr, err = pifsrec.TraceFor(pifsrec.TraceKind(*kind), m, *batches)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifssim:", err)
		os.Exit(1)
	}

	res, err := pifsrec.Simulate(pifsrec.Config{
		Scheme:      pifsrec.Scheme(*scheme),
		Model:       m,
		Trace:       tr,
		Devices:     *devices,
		Switches:    *switches,
		Hosts:       *hosts,
		Shards:      *shards,
		BufferBytes: *buffer,
		Faults:      plan,
		Scenario:    sc,
		Seed:        1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pifssim:", err)
		os.Exit(1)
	}

	fmt.Println(res)
	fmt.Printf("host link: %d B down, %d B up\n", res.HostLinkDownBytes, res.HostLinkUpBytes)
	fmt.Printf("local DRAM reads: %d; device reads: %v\n", res.LocalDRAMReads, res.DeviceReads)
	fmt.Printf("mean DRAM queue delay: %.1f ns\n", res.MeanQueueDelayNS)
	fmt.Printf("buffer hit ratio: %.1f%%; pages migrated: %d; migration stall: %d ns\n",
		100*res.BufferHitRatio, res.PagesMigrated, res.MigrationStallNS)
	fmt.Printf("device access balance: mean %.0f, std %.0f\n", res.DeviceAccessMean, res.DeviceAccessStd)
	s := res.Sched
	crossPct := 0.0
	if s.Envelopes > 0 {
		crossPct = 100 * float64(s.CrossShardEnvelopes) / float64(s.Envelopes)
	}
	fmt.Printf("sched: %d workers; %d envelopes, %d cross-shard (%.1f%%)\n",
		s.Workers, s.Envelopes, s.CrossShardEnvelopes, crossPct)
	fmt.Printf("sched: %d windows run, %d elided; fired share %s\n",
		s.WindowsRun, s.WindowsElided, firedShare(s.WorkerFiredShare))
	if sc != nil && !sc.Empty() {
		l := res.Latency
		fmt.Printf("latency: %d requests; mean %.0f ns; p50 %d, p95 %d, p99 %d, p999 %d, max %d ns\n",
			l.Requests, l.MeanNS, l.P50NS, l.P95NS, l.P99NS, l.P999NS, l.MaxNS)
		if l.SLONS > 0 {
			fmt.Printf("latency: offered %.0f qps, goodput %.0f qps; %d/%d within %d ns SLO\n",
				l.OfferedQPS, l.GoodputQPS, l.WithinSLO, l.Requests, l.SLONS)
		} else {
			fmt.Printf("latency: offered %.0f qps, goodput %.0f qps (no SLO configured)\n",
				l.OfferedQPS, l.GoodputQPS)
		}
	}
	if plan != nil {
		fmt.Printf("faults: %d retries, %d timeouts, %d aborted rows, %d aborted bags, %d rerouted rows\n",
			res.FaultRetries, res.FaultTimeouts, res.AbortedRows, res.AbortedBags, res.ReroutedRows)
		fmt.Printf("faults: degraded %.1f%% of the run; goodput %.0f bags/s; link stall %d ns\n",
			100*res.DegradedFraction, res.GoodputBagsPerSec, res.LinkFaultStallNS)
	}
}

// firedShare renders per-worker fired fractions as compact percentages.
func firedShare(shares []float64) string {
	out := "["
	for i, s := range shares {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.0f%%", 100*s)
	}
	return out + "]"
}

func cacheDesc(dir string) string {
	if dir == "" {
		return "memory-only"
	}
	return dir
}
