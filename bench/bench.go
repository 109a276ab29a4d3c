package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pifsrec/bench/stats"
	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/serve"
	"pifsrec/internal/sim"
)

// poolWidth is the harness pool width every sweep workload runs at: the
// runner's core count, so load stays within nproc = 2.
const poolWidth = 2

// bench is one run of one workload: its inputs, the ops it attempted, the
// samples it timed and, when traced, the spans and layer counts it saw.
type bench struct {
	rng     *rand.Rand
	seconds time.Duration
	golden  golden
	workDir string
	rec     *recorder // nil when untraced

	start     time.Time // start of the measured loop
	attempted int

	mu       sync.Mutex // guards failures, work and jobTime: jobs end on pool goroutines
	failures []string

	samples map[string][]float64 // wall seconds per series; "rss" in MB
	detail  map[string]stats.Metric

	// speedup is PIFS-Rec's simulated mean speedup over Pond and over
	// BEACON, computed at set-up from the fig12a jobs with the formula of
	// that figure's note.
	speedup [2]float64

	instrument bool // the current cycle is traced (alternate cycles run plain)
	// opTimes holds a traced run's op times by op name, plain ([0]) and
	// instrumented ([1]), for the tracing overhead.
	opTimes  map[string][2][]float64
	counting bool // the current cycle is the first: work counts accumulate
	work     work
	jobTime  jobTiming
	probes   []probeJob
	hashInfo map[string]probeJob // 12-hex hash prefix -> job, for worker log lines
}

func newBench(seed uint64, seconds time.Duration, traced bool, g golden, workDir string) *bench {
	b := &bench{
		rng:      rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		seconds:  seconds,
		golden:   g,
		workDir:  workDir,
		samples:  make(map[string][]float64),
		detail:   make(map[string]stats.Metric),
		jobTime:  jobTiming{kind: make(map[string]time.Duration)},
		hashInfo: make(map[string]probeJob),
		opTimes:  make(map[string][2][]float64),
	}
	if traced {
		b.rec = newRecorder()
	}
	return b
}

func (b *bench) traced() bool { return b.rec != nil }

// expired reports whether the measured window is over.
func (b *bench) expired() bool { return time.Since(b.start) >= b.seconds }

// beginCycle starts cycle n of a workload's loop. Traced runs instrument
// even cycles only, so plain cycles of the same run give the tracing
// overhead; work counts cover cycle 0.
func (b *bench) beginCycle(n int) {
	b.instrument = b.traced() && n%2 == 0
	b.rec.setOn(b.instrument)
	b.mu.Lock()
	b.counting = b.traced() && n == 0
	b.mu.Unlock()
}

func (b *bench) sample(series string, v float64) {
	b.samples[series] = append(b.samples[series], v)
}

// op runs fn as one operation of the closed loop and returns its wall time
// in seconds. An error or a panic, including a mismatched output, counts as
// a failed op.
func (b *bench) op(name string, fn func() error) (float64, bool) {
	b.attempted++
	id := b.rec.begin(name, 0, 0)
	start := time.Now()
	err := catch(fn)
	d := time.Since(start).Seconds()
	b.rec.end(id)
	if b.traced() {
		mode := 0
		if b.instrument {
			mode = 1
		}
		times := b.opTimes[name]
		times[mode] = append(times[mode], d)
		b.opTimes[name] = times
	}
	if rss, rerr := rssMB("VmRSS:"); rerr == nil {
		b.sample("rss", rss)
	}
	if err != nil {
		b.fail(name, err)
		return d, false
	}
	return d, true
}

func catch(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// fail records a failed op (or a failed check of an op's output).
func (b *bench) fail(name string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = append(b.failures, fmt.Sprintf("%s: %v", name, err))
}

func (b *bench) failed() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.failures)
}

// span times fn as a child of the op in flight.
func (b *bench) span(name string, fn func()) {
	id := b.rec.begin(name, b.rec.currentOp(), 0)
	fn()
	b.rec.end(id)
}

// ---- set-up shared by the sweep workloads ----

// Paper speedups of PIFS-Rec over Pond and over BEACON (§VI).
const paperPond, paperBEACON = 3.89, 2.03

// warmUp runs the fig12a jobs once with no cache, as set-up's untimed
// warm-up, and keeps the speedups the fig12a note prints.
func (b *bench) warmUp() error {
	var jobs []harness.Job
	b.span("trace.gen", func() { jobs = harness.Jobs("fig12a") })
	res := harness.DefaultRunner().RunJobs(jobs)
	var pond, beacon []float64
	byScheme := make(map[engine.Scheme]float64)
	for i, r := range res {
		byScheme[r.Engine.Scheme] = r.Engine.NSPerBag
		if (i+1)%len(engine.Schemes()) == 0 {
			p := byScheme[engine.PIFSRec]
			pond = append(pond, byScheme[engine.Pond]/p)
			beacon = append(beacon, byScheme[engine.BEACON]/p)
		}
	}
	if len(pond) == 0 {
		return errors.New("warm-up: fig12a produced no results")
	}
	mp, _ := sim.MeanStd(pond)
	mb, _ := sim.MeanStd(beacon)
	b.speedup = [2]float64{mp, mb}
	return nil
}

// checkTable checks one experiment's printed table against its golden
// digest and, for fig12a, the note's speedups against the warm-up's.
func (b *bench) checkTable(id string, text []byte) error {
	if err := b.golden.check(tableName(id), text); err != nil {
		return err
	}
	if id == "fig12a" && b.speedup[0] > 0 {
		want := fmt.Sprintf("PIFS-Rec vs Pond: %.2fx (paper %.2fx); vs BEACON: %.2fx", b.speedup[0], paperPond, b.speedup[1])
		if !strings.Contains(string(text), want) {
			return fmt.Errorf("fig12a note does not read %q", want)
		}
	}
	return nil
}

// modelDetail reports the simulated speedups' distance from the paper's.
func (b *bench) modelDetail() {
	b.detail["model_err_pond_pct"] = stats.Single("%", "lower", 100*math.Abs(b.speedup[0]-paperPond)/paperPond)
	b.detail["model_err_beacon_pct"] = stats.Single("%", "lower", 100*math.Abs(b.speedup[1]-paperBEACON)/paperBEACON)
}

// ---- job spans and layer counts ----

// jobKind names a job by the engine path it drives.
func jobKind(j harness.Job) string {
	switch {
	case j.Numa != nil:
		return "numasim"
	case j.Engine.Faults != nil:
		return "fault"
	case j.Engine.Scenario != nil:
		return "openloop"
	case j.Engine.Switches > 1:
		return "multiswitch"
	}
	return "closed"
}

// probeJob is a job with its result, kept for the layer probes.
type probeJob struct {
	job  harness.Job
	hash memo.Hash
	res  harness.JobResult
}

// localSeam is the harness.Distributor a traced sweep installs: it runs the
// cache misses on the caller's pool exactly as the harness would, with a
// span around each job, so every phase of an experiment is timed per job.
func (b *bench) localSeam(jobs []harness.Job, hashes []memo.Hash, workers int, runLocal func(int) harness.JobResult) []harness.JobResult {
	out := make([]harness.JobResult, len(jobs))
	parent := b.rec.currentOp()
	lanes := make(chan int, workers)
	for i := 1; i <= workers; i++ {
		lanes <- i
	}
	harness.NewRunner(workers).Do(len(jobs), func(k int) {
		lane := <-lanes
		defer func() { lanes <- lane }()
		kind := jobKind(jobs[k])
		id := b.rec.begin(kind, parent, lane)
		start := time.Now()
		out[k] = runLocal(k)
		d := time.Since(start)
		b.rec.end(id)
		b.observe(probeJob{jobs[k], hashes[k], out[k]}, d, true)
	})
	return out
}

// remoteSeam wraps the coordinator's distributor: one span per published
// miss set, and the results' work counts when the jobs were simulated
// (simulated reports that for the current phase of the loop).
func (b *bench) remoteSeam(inner harness.Distributor, simulated func() bool) harness.Distributor {
	return func(jobs []harness.Job, hashes []memo.Hash, workers int, runLocal func(int) harness.JobResult) []harness.JobResult {
		b.mu.Lock()
		for k := range jobs {
			b.hashInfo[hashes[k].Hex()[:12]] = probeJob{job: jobs[k], hash: hashes[k]}
		}
		b.mu.Unlock()
		id := b.rec.begin("serve.RunMissing", b.rec.currentOp(), 1)
		out := inner(jobs, hashes, workers, runLocal)
		b.rec.end(id)
		if simulated() {
			for k := range jobs {
				b.observe(probeJob{jobs[k], hashes[k], out[k]}, 0, false)
			}
		}
		return out
	}
}

// jobTiming accumulates host time per simulated job over the traced run.
type jobTiming struct {
	kind       map[string]time.Duration
	engineJobs int
	engine     time.Duration
	bags       int64
}

// observe records one simulated job: its host time when timed, and in the
// first cycle its work counts and a place in the probe set.
func (b *bench) observe(p probeJob, d time.Duration, timed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	kind := jobKind(p.job)
	if timed {
		b.timeJobLocked(kind, d, p.res.Engine.Bags)
	}
	if b.counting {
		b.work.add(kind, p.res.Engine)
		if len(b.probes) < maxProbes {
			b.probes = append(b.probes, p)
		}
	}
}

func (b *bench) timeJobLocked(kind string, d time.Duration, bags int) {
	b.jobTime.kind[kind] += d
	if kind != "numasim" {
		b.jobTime.engineJobs++
		b.jobTime.engine += d
		b.jobTime.bags += int64(bags)
	}
}

// work is the deterministic work a cycle did, summed over the jobs it
// simulated (layer counters from engine.Result) plus the cache, board and
// shard-scheduling counters the workload adds.
type work struct {
	engineJobs, numaJobs        int
	bags                        int64
	localReads                  int64
	queueDelaySum               float64
	deviceReads, hostLinkBytes  int64
	osbHits                     int64
	osbLookups                  float64
	tagSwitches, inorderStalls  int64
	pagesMigrated               int64
	faultRetries, faultTimeouts int64

	memo  memo.Stats
	board serve.DistStats
	sched sim.SchedStats
}

func (w *work) add(kind string, r engine.Result) {
	if kind == "numasim" {
		w.numaJobs++
		return
	}
	w.engineJobs++
	w.bags += int64(r.Bags)
	w.localReads += r.LocalDRAMReads
	w.queueDelaySum += r.MeanQueueDelayNS
	for _, n := range r.DeviceReads {
		w.deviceReads += n
	}
	w.hostLinkBytes += r.HostLinkDownBytes + r.HostLinkUpBytes
	w.osbHits += r.BufferHits
	if r.BufferHitRatio > 0 {
		w.osbLookups += float64(r.BufferHits) / r.BufferHitRatio
	}
	w.tagSwitches += r.CoreTagSwitches
	w.inorderStalls += r.CoreInOrderStalls
	w.pagesMigrated += int64(r.PagesMigrated)
	w.faultRetries += r.FaultRetries
	w.faultTimeouts += r.FaultTimeouts
}

func addMemo(a, s memo.Stats) memo.Stats {
	a.Hits += s.Hits
	a.Misses += s.Misses
	a.MemHits += s.MemHits
	a.PutEntries += s.PutEntries
	a.PutBytes += s.PutBytes
	a.GetBytes += s.GetBytes
	a.CorruptEntries += s.CorruptEntries
	a.PutErrors += s.PutErrors
	return a
}

// addMemoStats adds a store's counters to the first cycle's work.
func (b *bench) addMemoStats(s memo.Stats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.counting {
		b.work.memo = addMemo(b.work.memo, s)
	}
}

// ---- per-layer assembly ----

// layerInputs are the whole-run measurements a traced run adds to its work
// counts and spans.
type layerInputs struct {
	cpu      map[string]float64 // percent per cpuLayers entry
	gcCycles uint32
	gcPause  time.Duration
	allocMB  float64
	probeUS  map[string]float64 // median microseconds per probed call
}

// layerMetrics assembles every per-layer metric from a traced run.
func (b *bench) layerMetrics(in layerInputs) map[string]stats.Metric {
	v := make(map[string]float64)
	for _, l := range cpuLayers {
		v["cpu."+l] = in.cpu[l]
	}
	w, t := b.work, b.jobTime
	v["engine.jobs"] = float64(w.engineJobs)
	v["numasim.jobs"] = float64(w.numaJobs)
	v["engine.sim_bags"] = float64(w.bags)
	if t.engineJobs > 0 {
		v["engine.run_ms"] = ms(t.engine) / float64(t.engineJobs)
	}
	if t.bags > 0 {
		v["engine.host_ns_per_sim_bag"] = float64(t.engine.Nanoseconds()) / float64(t.bags)
	}
	if t.engine > 0 {
		share := func(kind string) float64 { return 100 * float64(t.kind[kind]) / float64(t.engine) }
		v["engine.share_closed"] = share("closed")
		v["engine.share_fault"] = share("fault")
		v["engine.share_multiswitch"] = share("multiswitch")
		v["scenario.openloop_share"] = share("openloop")
	}
	v["dram.local_reads"] = float64(w.localReads)
	if w.engineJobs > 0 {
		v["dram.mean_queue_delay_ns"] = w.queueDelaySum / float64(w.engineJobs)
	}
	v["cxl.device_reads"] = float64(w.deviceReads)
	v["cxl.host_link_bytes"] = float64(w.hostLinkBytes)
	v["osb.hits"] = float64(w.osbHits)
	if w.osbLookups > 0 {
		v["osb.hit_ratio"] = float64(w.osbHits) / w.osbLookups
	}
	v["pifs.tag_switches"] = float64(w.tagSwitches)
	v["pifs.inorder_stalls"] = float64(w.inorderStalls)
	v["tier.pages_migrated"] = float64(w.pagesMigrated)
	v["fault.retries"] = float64(w.faultRetries)
	v["fault.timeouts"] = float64(w.faultTimeouts)

	s := w.sched
	v["sim.envelopes"] = float64(s.Envelopes)
	v["sim.cross_shard_envelopes"] = float64(s.CrossShardEnvelopes)
	v["sim.windows_run"] = float64(s.WindowsRun)
	v["sim.windows_elided"] = float64(s.WindowsElided)
	if n := len(s.WorkerFiredShare); n > 0 {
		hi := 0.0
		for _, f := range s.WorkerFiredShare {
			hi = max(hi, f)
		}
		v["sim.worker_imbalance"] = hi*float64(n) - 1
	}
	if m, ok := b.detail["shard_speedup"]; ok {
		v["sim.shard_speedup"] = m.Value
	}

	spans := b.rec.closed()
	v["trace.gen_ms"] = 1e3 * stats.Median(spanDurations(spans, "trace.gen"))
	v["trace.overhead_frac"] = b.overhead()
	v["harness.pool_busy_frac"], v["harness.residual_frac"] = poolFractions(spans)

	m := w.memo
	v["memo.hits"] = float64(m.Hits)
	v["memo.misses"] = float64(m.Misses)
	if m.Hits+m.Misses > 0 {
		v["memo.hit_ratio"] = float64(m.Hits) / float64(m.Hits+m.Misses)
	}
	v["memo.put_bytes"] = float64(m.PutBytes)
	v["memo.get_bytes"] = float64(m.GetBytes)
	v["memo.corrupt"] = float64(m.CorruptEntries)
	v["memo.put_errors"] = float64(m.PutErrors)

	d := w.board
	v["serve.published"] = float64(d.Published)
	v["serve.shared_jobs"] = float64(d.SharedJobs)
	v["serve.remote_completed"] = float64(d.RemoteCompleted)
	v["serve.remote_cache_hits"] = float64(d.RemoteCacheHits)
	v["serve.local_runs"] = float64(d.LocalRuns)
	v["serve.lease_expired"] = float64(d.LeaseExpired)
	v["serve.reissued"] = float64(d.Reissued)
	v["serve.failed_leases"] = float64(d.FailedLeases)
	v["serve.corrupt_results"] = float64(d.CorruptResults)
	v["serve.duplicate_results"] = float64(d.DuplicateResults)
	v["serve.late_results"] = float64(d.LateResults)

	for name, us := range in.probeUS {
		v[name] = us
	}
	v["gc.cycles"] = float64(in.gcCycles)
	v["gc.pause_ms"] = ms(in.gcPause)
	v["runtime.alloc_mb_per_op"] = in.allocMB

	out := make(map[string]stats.Metric, len(perLayer))
	for _, def := range perLayer {
		out[def.Name] = stats.Single(def.Unit, def.Better, v[def.Name])
	}
	return out
}

// overhead is the tracing overhead: the summed median time of the ops that
// ran both instrumented and plain, instrumented over plain, minus 1.
func (b *bench) overhead() float64 {
	var traced, plain float64
	for _, t := range b.opTimes {
		if len(t[0]) > 0 && len(t[1]) > 0 {
			plain += stats.Median(t[0])
			traced += stats.Median(t[1])
		}
	}
	if plain == 0 {
		return 0
	}
	return traced/plain - 1
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// spanDurations returns the durations of the spans with the given name
// inside measured ops (set-up's spans are left out).
func spanDurations(spans []span, name string) []float64 {
	setup := make(map[int64]bool)
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "setup" {
			setup[s.ID] = true
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && !setup[s.Op] {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// poolFractions returns, over the measured ops' spans, the share of pool
// capacity the ops' child spans kept busy (sum of child time over op time x
// pool width) and the share of op time no child covered (the op's self time:
// job-list building, cache lookups, assembly, HTTP).
func poolFractions(spans []span) (busy, residual float64) {
	self := selfTimes(spans)
	isOp := make(map[int64]bool)
	var opTime, childTime, selfTime time.Duration
	for _, s := range spans {
		if s.Parent == 0 && s.Name != "setup" {
			isOp[s.ID] = true
			opTime += s.dur()
			selfTime += self[s.ID]
		}
	}
	for _, s := range spans {
		if isOp[s.Parent] {
			childTime += s.dur()
		}
	}
	if opTime == 0 {
		return 0, 0
	}
	return float64(childTime) / float64(opTime*poolWidth), float64(selfTime) / float64(opTime)
}

// maxProbes bounds the probe set: enough jobs for stable medians.
const maxProbes = 256

// probeLayers times the memo and wire layers' public calls on the probe
// set's jobs and results, returning the median microseconds per call.
func (b *bench) probeLayers() (map[string]float64, error) {
	dir, err := os.MkdirTemp(b.workDir, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := memo.Open(dir)
	if err != nil {
		return nil, err
	}
	times := make(map[string][]float64)
	timeCall := func(name string, fn func() error) error {
		start := time.Now()
		err := fn()
		times[name] = append(times[name], float64(time.Since(start).Nanoseconds())/1e3)
		return err
	}
	payloads := make([][]byte, len(b.probes))
	for i, p := range b.probes {
		var wire, payload []byte
		steps := []struct {
			name string
			fn   func() error
		}{
			{"memo.hash_us", func() error { _, err := p.job.Hash(); return err }},
			{"memo.encode_us", func() (err error) { payload, err = harness.EncodeJobResult(p.res); return err }},
			{"memo.decode_us", func() error { _, err := harness.DecodeJobResult(payload); return err }},
			{"memo.put_us", func() error { return st.Put(p.hash, payload) }},
			{"serve.wire_encode_us", func() (err error) { wire, err = harness.EncodeJob(p.job); return err }},
			{"serve.wire_decode_us", func() error { _, err := harness.DecodeJob(wire); return err }},
		}
		for _, s := range steps {
			if err := timeCall(s.name, s.fn); err != nil {
				return nil, fmt.Errorf("probe %s: %w", s.name, err)
			}
		}
		payloads[i] = payload
	}
	// A re-opened store has an empty memory cache, so every Get reads disk.
	st, err = memo.Open(dir)
	if err != nil {
		return nil, err
	}
	for i, p := range b.probes {
		if err := timeCall("memo.get_us", func() error {
			got, ok := st.Get(p.hash)
			if !ok || string(got) != string(payloads[i]) {
				return errors.New("stored payload did not read back")
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("probe memo.get_us: %w", err)
		}
	}
	out := make(map[string]float64, len(times))
	for name, xs := range times {
		out[name] = stats.Median(xs)
	}
	return out, nil
}

// rssMB reads one resident-set field of /proc/self/status ("VmRSS:" now,
// "VmHWM:" the peak) in MB.
func rssMB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// resetPeakRSS restarts the kernel's peak-RSS count, so VmHWM covers what
// runs after it. A kernel without the control keeps the process's whole
// peak, which can only read higher.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// memSnapshot reads the runtime's GC and allocation counters.
func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
