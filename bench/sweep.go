package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"pifsrec/bench/stats"
	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/serve"
	"pifsrec/internal/sim"
)

// editExperiment is the experiment the edit op re-answers with one job
// changed.
const editExperiment = "fig13a"

// sweep is what the three sweep workloads share: the experiment ids, the
// edit op, and the edits kept for verification after the window.
type sweep struct {
	b     *bench
	ids   []string
	edits []editedJob
	// editOrder is the seed-chosen order in which edit ops cycle through
	// the experiment's jobs; nEdits counts the edit ops so far.
	editOrder []int
	nEdits    int
}

type editedJob struct {
	cfg engine.Config
	got harness.JobResult
}

func newSweep(b *bench) (sweep, error) {
	harness.SetParallelism(poolWidth)
	harness.SetStore(nil)
	harness.SetDistributor(nil)
	if err := b.warmUp(); err != nil {
		return sweep{}, err
	}
	return sweep{b: b, ids: harness.IDs()}, nil
}

// pass runs every experiment once, in a seed-chosen order, as one op each,
// timing each into series/<id>, and returns the pass's wall time. fetch
// returns an experiment's printed table. Outside the first cycle the pass
// stops early when the window ends; complete reports whether it ran every
// experiment.
func (s *sweep) pass(cycle int, series string, fetch func(id string) ([]byte, error)) (wall float64, complete bool) {
	start := time.Now()
	for _, i := range s.b.rng.Perm(len(s.ids)) {
		if cycle > 0 && s.b.expired() {
			return time.Since(start).Seconds(), false
		}
		id := s.ids[i]
		d, ok := s.b.op(series+"/"+id, func() error {
			text, err := fetch(id)
			if err != nil {
				return err
			}
			return s.b.checkTable(id, text)
		})
		if ok {
			s.b.sample(series+"/"+id, d)
		}
	}
	return time.Since(start).Seconds(), true
}

// edit re-answers fig13a with one job changed — the seed picks the order
// the jobs are changed in and their new engine seeds — through run, as one
// op. The unchanged jobs' results are checked against their golden
// digests; the changed one is kept for verifyEdits.
func (s *sweep) edit(run func([]harness.Job) []harness.JobResult) {
	k := 0
	d, ok := s.b.op("edit "+editExperiment, func() error {
		var jobs []harness.Job
		s.b.span("trace.gen", func() { jobs = harness.Jobs(editExperiment) })
		if s.editOrder == nil {
			s.editOrder = s.b.rng.Perm(len(jobs))
		}
		k = s.editOrder[s.nEdits%len(s.editOrder)]
		s.nEdits++
		cfg := *jobs[k].Engine
		cfg.Seed = 1000 + s.b.rng.Uint64N(1<<40)
		jobs[k].Engine = &cfg
		res := run(jobs)
		for i, r := range res {
			if i == k {
				continue
			}
			p, err := harness.EncodeJobResult(r)
			if err != nil {
				return err
			}
			if err := s.b.golden.check(editJobName(i), p); err != nil {
				return err
			}
		}
		s.edits = append(s.edits, editedJob{cfg: cfg, got: res[k]})
		return nil
	})
	if ok {
		s.b.sample(fmt.Sprintf("edit/%d", k), d)
	}
}

// verifyEdits re-simulates every changed job directly, after the window,
// and fails the edits whose answer differs.
func (s *sweep) verifyEdits() {
	for _, e := range s.edits {
		if err := sameAsDirectRun(e.cfg, e.got); err != nil {
			s.b.fail("verify edit", err)
		}
	}
}

func sameAsDirectRun(cfg engine.Config, got harness.JobResult) error {
	want, err := engine.Run(cfg)
	if err != nil {
		return err
	}
	want.Sched = sim.SchedStats{}
	a, err := harness.EncodeJobResult(harness.JobResult{Engine: want})
	if err != nil {
		return err
	}
	b, err := harness.EncodeJobResult(got)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return fmt.Errorf("job with seed %d: result differs from a direct engine.Run", cfg.Seed)
	}
	return nil
}

// sweepS is a full pass's time estimated from the per-experiment medians
// of a series, which uses every sample of a run whose last pass stopped
// part-way.
func (s *sweep) sweepS(series string) float64 {
	total := 0.0
	for _, id := range s.ids {
		total += stats.Median(s.b.samples[series+"/"+id])
	}
	return total
}

// editMetric is the median over the edited jobs of each job's median edit
// time. Jobs differ in cost, and a run that edits every job measures the
// same mix whatever order its seed picked.
func (s *sweep) editMetric() stats.Metric {
	var perJob []float64
	for k := range s.editOrder {
		if xs := s.b.samples[fmt.Sprintf("edit/%d", k)]; len(xs) > 0 {
			perJob = append(perJob, stats.Median(xs))
		}
	}
	return stats.Summary("s", "lower", perJob)
}

// tableText runs one experiment in-process and returns its printed table.
func tableText(id string) ([]byte, error) {
	t, err := harness.RunTable(id)
	if err != nil {
		return nil, err
	}
	return []byte(t.String()), nil
}

// ---- sweep-cold ----

// coldSweep regenerates every table with no cache, as pifsbench does.
type coldSweep struct{ sweep }

// coldEditsPerCycle is how many edits follow each cold pass: with no cache
// an edit re-runs all of fig13a, and one per pass would leave a run with
// two or three samples.
const coldEditsPerCycle = 3

func setupCold(b *bench) (instance, error) {
	s, err := newSweep(b)
	return &coldSweep{s}, err
}

// instrumented runs fn with a fresh in-memory cache and the job-span seam
// installed when the cycle is traced, so each job of each phase is timed.
func (w *coldSweep) instrumented(fn func()) {
	if !w.b.instrument {
		fn()
		return
	}
	st := memo.InMemory()
	harness.SetStore(st)
	harness.SetDistributor(w.b.localSeam)
	defer func() {
		harness.SetStore(nil)
		harness.SetDistributor(nil)
		w.b.addMemoStats(st.Stats())
	}()
	fn()
}

func (w *coldSweep) run() {
	b := w.b
	for cycle := 0; cycle == 0 || !b.expired(); cycle++ {
		b.beginCycle(cycle)
		_, complete := w.pass(cycle, "table", func(id string) (text []byte, err error) {
			w.instrumented(func() { text, err = tableText(id) })
			return text, err
		})
		if !complete {
			return
		}
		for i := 0; i < coldEditsPerCycle; i++ {
			w.edit(func(jobs []harness.Job) (res []harness.JobResult) {
				w.instrumented(func() { res = harness.DefaultRunner().RunJobs(jobs) })
				return res
			})
		}
	}
}

func (w *coldSweep) verify() { w.verifyEdits() }

func (w *coldSweep) report() (pass, edit stats.Metric) {
	w.b.modelDetail()
	return stats.Single("s", "lower", w.sweepS("table")), w.editMetric()
}

func (w *coldSweep) close() {}

// ---- sweep-memo ----

// memoSweep fills a disk cache, then re-answers the sweep from it.
type memoSweep struct {
	sweep
	dir string
}

func setupMemo(b *bench) (instance, error) {
	s, err := newSweep(b)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(b.workDir, "memo-")
	if err != nil {
		return nil, err
	}
	w := &memoSweep{sweep: s, dir: dir}
	if err := w.open(); err != nil {
		w.close()
		return nil, err
	}
	if b.traced() {
		harness.SetDistributor(b.localSeam)
	}
	return w, nil
}

// open installs a freshly opened store on the cache directory. A fresh
// store has an empty memory cache, so the next pass reads every hit from
// disk, as a new pifsbench -cache-dir process would.
func (w *memoSweep) open() error {
	st, err := memo.Open(w.dir)
	if err != nil {
		return err
	}
	if prev := harness.SetStore(st); prev != nil {
		w.b.addMemoStats(prev.Stats())
	}
	return nil
}

func (w *memoSweep) run() {
	b := w.b
	b.beginCycle(0)
	fill, _ := w.pass(0, "fill", tableText)
	b.detail["fill_s"] = stats.Single("s", "lower", fill)
	for cycle := 0; cycle == 0 || !b.expired(); cycle++ {
		b.beginCycle(cycle)
		start := time.Now()
		if err := w.open(); err != nil {
			b.fail("open store", err)
			return
		}
		if _, complete := w.pass(cycle, "warm", tableText); !complete {
			return
		}
		b.sample("pass", time.Since(start).Seconds())
		w.edit(harness.DefaultRunner().RunJobs)
		if cycle == 0 {
			b.addMemoStats(harness.CurrentStore().Stats())
		}
	}
}

func (w *memoSweep) verify() { w.verifyEdits() }

func (w *memoSweep) report() (pass, edit stats.Metric) {
	w.b.modelDetail()
	return stats.Summary("s", "lower", w.b.samples["pass"]), w.editMetric()
}

func (w *memoSweep) close() {
	harness.SetStore(nil)
	harness.SetDistributor(nil)
	os.RemoveAll(w.dir)
}

// ---- sweep-dist ----

// distWorkers is the pull-worker count; each runs jobs one at a time.
const distWorkers = 2

// distSweep fetches every table over HTTP from an in-process coordinator
// whose cache misses two pull workers lease and run.
type distSweep struct {
	sweep
	coord  *serve.Coordinator
	srv    *httptest.Server
	client *http.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
	wstore *memo.Store // shared by both workers

	// simulating is true while the phase's leased jobs are simulated by
	// the workers rather than answered from their cache. The coordinator
	// reads it on its request goroutines.
	simulating atomic.Bool
}

func setupDist(b *bench) (instance, error) {
	s, err := newSweep(b)
	if err != nil {
		return nil, err
	}
	w := &distSweep{sweep: s, wstore: memo.InMemory()}
	// A claim budget longer than any run keeps every miss on the workers;
	// the lease outlives any one job, so none is re-issued while it runs.
	w.coord = serve.NewCoordinator(serve.CoordinatorConfig{LeaseTTL: 30 * time.Second, ClaimBudget: 10 * time.Minute})
	w.srv = httptest.NewServer(serve.Handler(serve.Options{Coordinator: w.coord}))
	w.client = &http.Client{Timeout: time.Minute}
	dist := harness.Distributor(w.coord.RunMissing)
	var logger *log.Logger
	if b.traced() {
		dist = b.remoteSeam(dist, w.simulating.Load)
		logger = log.New(&workerLog{b: b}, "", 0)
	}
	harness.SetDistributor(dist)
	harness.SetStore(memo.InMemory())
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	for i := 0; i < distWorkers; i++ {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			err := catch(func() error {
				return serve.RunWorker(ctx, serve.WorkerConfig{
					Coordinator: w.srv.URL,
					ID:          fmt.Sprintf("bench-worker-%d", i),
					Store:       w.wstore,
					Runner:      harness.NewRunner(1),
					Log:         logger,
				})
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				b.fail("worker", err)
			}
		}()
	}
	// Until both workers have polled, the coordinator would run misses
	// itself.
	deadline := time.Now().Add(30 * time.Second)
	for w.coord.Stats().LiveWorkers < distWorkers {
		if time.Now().After(deadline) {
			w.close()
			return nil, errors.New("dist: workers did not reach the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	return w, nil
}

// fetch is one GET /v1/run, as pifsbench -coordinator issues it.
func (w *distSweep) fetch(id string) ([]byte, error) {
	resp, err := w.client.Get(w.srv.URL + "/v1/run?id=" + url.QueryEscape(id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/run?id=%s: %s", id, resp.Status)
	}
	return body, nil
}

func (w *distSweep) run() {
	b := w.b
	b.beginCycle(0)
	w.simulating.Store(true)
	cold, _ := w.pass(0, "cold", w.fetch)
	b.detail["cold_pass_s"] = stats.Single("s", "lower", cold)
	for cycle := 0; cycle == 0 || !b.expired(); cycle++ {
		b.beginCycle(cycle)
		start := time.Now()
		// A fresh coordinator cache: every job is published and leased,
		// and the warm workers answer from theirs.
		if prev := harness.SetStore(memo.InMemory()); cycle == 0 {
			b.addMemoStats(prev.Stats())
		}
		w.simulating.Store(false)
		if _, complete := w.pass(cycle, "warm", w.fetch); !complete {
			return
		}
		b.sample("pass", time.Since(start).Seconds())
		w.simulating.Store(true)
		w.edit(harness.DefaultRunner().RunJobs)
		if cycle == 0 {
			b.addMemoStats(harness.CurrentStore().Stats())
			b.addMemoStats(w.wstore.Stats())
			// The coordinator is new with this set-up: its counters are
			// the first cycle's.
			b.mu.Lock()
			b.work.board = w.coord.Stats()
			b.mu.Unlock()
		}
	}
}

func (w *distSweep) verify() { w.verifyEdits() }

func (w *distSweep) report() (pass, edit stats.Metric) {
	w.b.modelDetail()
	w.b.detail["warm_fetch_ms_p50"] = stats.Single("ms", "lower", 1e3*stats.Median(allSamples(w.b, "warm", w.ids)))
	return stats.Summary("s", "lower", w.b.samples["pass"]), w.editMetric()
}

func allSamples(b *bench, series string, ids []string) []float64 {
	var out []float64
	for _, id := range ids {
		out = append(out, b.samples[series+"/"+id]...)
	}
	return out
}

func (w *distSweep) close() {
	w.cancel()
	w.wg.Wait()
	w.srv.Close()
	harness.SetDistributor(nil)
	harness.SetStore(nil)
}

// workerLogRE matches a pull worker's per-job log line.
var workerLogRE = regexp.MustCompile(`job ([0-9a-f]{12}) simulated in (\S+) `)

// workerLog reads the pull workers' per-job log lines: the workers run jobs
// where no span can reach, and each line carries the job's host time.
type workerLog struct{ b *bench }

func (l *workerLog) Write(p []byte) (int, error) {
	for _, m := range workerLogRE.FindAllSubmatch(p, -1) {
		d, err := time.ParseDuration(string(m[2]))
		if err != nil {
			continue
		}
		l.b.mu.Lock()
		if j, ok := l.b.hashInfo[string(m[1])]; ok && j.job.Engine != nil {
			l.b.timeJobLocked(jobKind(j.job), d, len(j.job.Engine.Trace.Bags))
		}
		l.b.mu.Unlock()
	}
	return len(p), nil
}
