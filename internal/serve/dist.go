// dist.go is the coordinator half of distributed sweep execution: a job
// board that exposes the cache-miss set of any in-flight sweep as leasable
// units keyed by their existing content hashes, plus the HTTP handlers a
// pull-worker fleet drives (/v1/jobs/lease, /v1/jobs/result, /v1/jobs/fail,
// /v1/jobs/status, /v1/traces/{hash}).
//
// The board sits behind harness.RunJobs as its Distributor
// (harness.SetDistributor(c.RunMissing)): every miss of a sweep becomes a
// board entry that either a remote worker leases and completes, or the
// coordinator's own pool runs after a claim budget (immediately, with no
// live workers or after a failed lease). Correctness never depends on who
// runs a job — results are content-addressed and byte-deterministic — so
// every scheduling decision here is pure cost:
//
//   - Leases carry deadlines. A lease past its deadline is re-issued to the
//     next worker that asks (or claimed locally), so a dead or slow worker
//     never wedges a sweep.
//   - Duplicate completions (an expired lease's worker finishing late, a
//     local fallback racing a remote result) resolve idempotently: the
//     first valid result wins, and the loser is checked byte-for-byte
//     against the winner — a mismatch is counted and logged, because under
//     the determinism contract it can only mean corruption or a
//     mixed-code-version fleet.
//   - Entries are shared across concurrent sweeps (singleflight): N
//     identical in-flight sweep requests publish each job once and all
//     wait on the same completion.
//   - A job that panics fails its sweeps, not a process: a worker returns
//     its lease, and every waiting sweep raises the coordinator run's panic.
//
// A lease carries the job's config-only PIFSJOB2 wire and names an engine
// job's trace by its content hash. The board keeps one copy of each named
// trace's PIFSTRC1 bytes, serves it at /v1/traces/{hash} while any entry
// names it, and drops it with the last such entry; a worker fetches each
// trace once and checks its hash before use.
//
// Result posts are CRC-framed with the memo store's own record framing
// (memo.EncodeFrame), validated with the same decoder the store uses
// against damaged cache records: a truncated, bit-flipped, misdirected, or
// trailing-garbage post is rejected before anything touches the store, and
// the lease is returned for re-issue.
package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/trace"
)

// workerLiveWindow is how recently a worker must have polled to count as
// live for the claim-budget gate.
const workerLiveWindow = 5 * time.Second

// CoordinatorConfig tunes the job board. Zero values take the defaults.
type CoordinatorConfig struct {
	// LeaseTTL is how long a worker holds a leased job before the lease
	// expires and the job is re-issued (default 20s).
	LeaseTTL time.Duration
	// ClaimBudget is how long a published job may wait for a worker before
	// the coordinator's local fallback claims it (default 250ms). The
	// budget only gates claims while live workers are attached; with none,
	// jobs run locally immediately, so a coordinator with no fleet behaves
	// like a plain local sweep.
	ClaimBudget time.Duration
	// Log receives coordinator events (lease expiries, duplicate
	// mismatches, corrupt posts); nil silences them.
	Log *log.Logger
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 20 * time.Second
	}
	if c.ClaimBudget <= 0 {
		c.ClaimBudget = 250 * time.Millisecond
	}
	return c
}

// distJob states. pending jobs are leasable and locally claimable (gated by
// the claim budget); leased jobs belong to a worker until the deadline;
// local jobs are running on the coordinator's own pool; done jobs hold the
// winning result.
const (
	statePending = iota
	stateLeased
	stateLocal
	stateDone
)

// distJob is one board entry: a cache-miss job published for execution,
// shared by every in-flight sweep that needs it.
type distJob struct {
	hash       memo.Hash
	wire       []byte
	trace      *boardTrace // nil for numa jobs
	enqueuedAt time.Time

	state    int
	leaseID  uint64
	worker   string
	deadline time.Time
	// expired records that a lease on this job expired or failed at least
	// once; it opens the local claim gate immediately, so a flaky fleet
	// degrades to local execution without waiting out the budget again.
	expired bool

	refs     int
	payload  []byte // winning result payload (canonical JobResult JSON)
	res      harness.JobResult
	panicked any // the local run's panic, raised by every waiting sweep
	done     chan struct{}
}

// boardTrace is one trace the board serves at /v1/traces/{hash}: the
// PIFSTRC1 bytes whose SHA-256 is hash, kept while any entry names it.
type boardTrace struct {
	hash memo.Hash
	raw  []byte
	refs int // board entries naming this trace
}

type workerInfo struct {
	lastSeen  time.Time
	leased    int64
	completed int64
	cacheHits int64
}

// Coordinator is the job board. All methods are safe for concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig

	mu       sync.Mutex
	jobs     map[memo.Hash]*distJob
	traces   map[memo.Hash]*boardTrace
	workers  map[string]*workerInfo
	wake     chan struct{} // closed and replaced whenever a job becomes leasable
	leaseSeq uint64

	published, sharedJobs                atomic.Int64
	remoteCompleted, remoteCacheHits     atomic.Int64
	remoteSimulated, localRuns           atomic.Int64
	leaseExpired, reissued, failedLeases atomic.Int64
	corruptResults, duplicateResults     atomic.Int64
	duplicateMismatches, lateResults     atomic.Int64
}

// NewCoordinator builds a job board with the given configuration.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		jobs:    make(map[memo.Hash]*distJob),
		traces:  make(map[memo.Hash]*boardTrace),
		workers: make(map[string]*workerInfo),
		wake:    make(chan struct{}),
	}
}

// DistStats is a snapshot of the board's counters.
type DistStats struct {
	// Inflight/Pending/Leased describe the board right now.
	Inflight int `json:"inflight"`
	Pending  int `json:"pending"`
	Leased   int `json:"leased"`
	// LiveWorkers is the number of workers seen within the live window.
	LiveWorkers int `json:"live_workers"`

	Published           int64 `json:"published"`
	SharedJobs          int64 `json:"shared_jobs"`
	RemoteCompleted     int64 `json:"remote_completed"`
	RemoteCacheHits     int64 `json:"remote_cache_hits"`
	RemoteSimulated     int64 `json:"remote_simulated"`
	LocalRuns           int64 `json:"local_runs"`
	LeaseExpired        int64 `json:"lease_expired"`
	Reissued            int64 `json:"reissued"`
	FailedLeases        int64 `json:"failed_leases"`
	CorruptResults      int64 `json:"corrupt_results"`
	DuplicateResults    int64 `json:"duplicate_results"`
	DuplicateMismatches int64 `json:"duplicate_mismatches"`
	LateResults         int64 `json:"late_results"`
}

// WorkerStatus is one worker's view in /v1/jobs/status.
type WorkerStatus struct {
	ID         string `json:"id"`
	LastSeenMS int64  `json:"last_seen_ms"` // milliseconds ago
	Leased     int64  `json:"leased"`
	Completed  int64  `json:"completed"`
	CacheHits  int64  `json:"cache_hits"`
}

// Stats returns a counter snapshot.
func (c *Coordinator) Stats() DistStats {
	now := time.Now()
	c.mu.Lock()
	s := DistStats{Inflight: len(c.jobs)}
	for _, e := range c.jobs {
		switch e.state {
		case statePending:
			s.Pending++
		case stateLeased:
			s.Leased++
		}
	}
	s.LiveWorkers = c.liveWorkersLocked(now)
	c.mu.Unlock()

	s.Published = c.published.Load()
	s.SharedJobs = c.sharedJobs.Load()
	s.RemoteCompleted = c.remoteCompleted.Load()
	s.RemoteCacheHits = c.remoteCacheHits.Load()
	s.RemoteSimulated = c.remoteSimulated.Load()
	s.LocalRuns = c.localRuns.Load()
	s.LeaseExpired = c.leaseExpired.Load()
	s.Reissued = c.reissued.Load()
	s.FailedLeases = c.failedLeases.Load()
	s.CorruptResults = c.corruptResults.Load()
	s.DuplicateResults = c.duplicateResults.Load()
	s.DuplicateMismatches = c.duplicateMismatches.Load()
	s.LateResults = c.lateResults.Load()
	return s
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log.Printf(format, args...)
	}
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= workerLiveWindow {
			n++
		}
	}
	return n
}

func (c *Coordinator) touchWorker(id string) *workerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touchWorkerLocked(id)
}

func (c *Coordinator) touchWorkerLocked(id string) *workerInfo {
	w := c.workers[id]
	if w == nil {
		w = &workerInfo{}
		c.workers[id] = w
	}
	w.lastSeen = time.Now()
	return w
}

// wakeLocked signals every lease long-poller that the board changed.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// enqueue publishes a job, deduplicating against the in-flight set: a
// second sweep needing the same hash shares the first's entry (singleflight
// — the job simulates once, both sweeps get the result). A new entry
// naming trace tr (nil for numa jobs) takes one reference on the board's
// copy of it, adding tr to the table if no entry names its hash yet; a
// shared entry takes none.
func (c *Coordinator) enqueue(h memo.Hash, wire []byte, tr *boardTrace) *distJob {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.jobs[h]; e != nil {
		e.refs++
		c.sharedJobs.Add(1)
		return e
	}
	if tr != nil {
		if have := c.traces[tr.hash]; have != nil {
			tr = have
		} else {
			c.traces[tr.hash] = tr
		}
		tr.refs++
	}
	e := &distJob{
		hash:       h,
		wire:       wire,
		trace:      tr,
		enqueuedAt: time.Now(),
		state:      statePending,
		refs:       1,
		done:       make(chan struct{}),
	}
	c.jobs[h] = e
	c.published.Add(1)
	c.wakeLocked()
	return e
}

// release drops one reference per non-nil entry; an entry with no remaining
// waiters leaves the board (later result posts for it count as late), and
// the last entry naming a trace takes the trace's bytes with it (later
// fetches of it answer 404).
func (c *Coordinator) release(entries []*distJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		if e == nil {
			continue
		}
		e.refs--
		if e.refs > 0 {
			continue
		}
		delete(c.jobs, e.hash)
		if tr := e.trace; tr != nil {
			if tr.refs--; tr.refs == 0 {
				delete(c.traces, tr.hash)
			}
		}
	}
}

// tryLease hands up to max claimable jobs to a worker. Jobs whose lease has
// expired are re-issued here — a second worker (or the same one, recovered)
// takes over without any coordinator-side reaper.
func (c *Coordinator) tryLease(worker string, max int) []*distJob {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*distJob
	for _, e := range c.jobs {
		if len(out) >= max {
			break
		}
		switch {
		case e.state == statePending:
		case e.state == stateLeased && now.After(e.deadline):
			c.leaseExpired.Add(1)
			c.reissued.Add(1)
			e.expired = true
			c.logf("coordinator: lease %d on %s (worker %s) expired; re-issuing", e.leaseID, e.hash.Hex()[:12], e.worker)
		default:
			continue
		}
		c.leaseSeq++
		e.state = stateLeased
		e.leaseID = c.leaseSeq
		e.worker = worker
		e.deadline = now.Add(c.cfg.LeaseTTL)
		out = append(out, e)
	}
	return out
}

// tryClaimLocal atomically claims a job for coordinator-local execution.
// Pending jobs are claimable once the budget elapses (or immediately with
// no live fleet, or after any lease failure); leased jobs only once their
// deadline passes.
func (c *Coordinator) tryClaimLocal(e *distJob) bool {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.state {
	case statePending:
		if !e.expired && c.liveWorkersLocked(now) > 0 && now.Sub(e.enqueuedAt) < c.cfg.ClaimBudget {
			return false
		}
	case stateLeased:
		if !now.After(e.deadline) {
			return false
		}
		c.leaseExpired.Add(1)
		e.expired = true
		c.logf("coordinator: lease %d on %s (worker %s) expired; running locally", e.leaseID, e.hash.Hex()[:12], e.worker)
	default:
		return false
	}
	e.state = stateLocal
	return true
}

// completeRemote records a worker's validated result. The first valid
// completion wins; duplicates are byte-checked against the winner.
func (c *Coordinator) completeRemote(h memo.Hash, payload []byte, res harness.JobResult, worker string, cached bool) string {
	c.mu.Lock()
	e := c.jobs[h]
	if e == nil {
		c.mu.Unlock()
		c.lateResults.Add(1)
		c.logf("coordinator: late result for %s from %s (no in-flight sweep wants it)", h.Hex()[:12], worker)
		return "late"
	}
	if e.state == stateDone {
		mismatch := string(e.payload) != string(payload)
		c.mu.Unlock()
		c.duplicateResults.Add(1)
		if mismatch {
			c.duplicateMismatches.Add(1)
			c.logf("coordinator: DUPLICATE MISMATCH for %s from %s: result differs from first completion (corruption or mixed code versions?)", h.Hex()[:12], worker)
			return "mismatch"
		}
		return "duplicate"
	}
	e.state = stateDone
	e.payload = payload
	e.res = res
	// Count before waking the sweep, so whoever reads the counters once it
	// has returned sees this completion.
	c.remoteCompleted.Add(1)
	w := c.touchWorkerLocked(worker)
	w.completed++
	if cached {
		c.remoteCacheHits.Add(1)
		w.cacheHits++
	} else {
		c.remoteSimulated.Add(1)
	}
	close(e.done)
	c.mu.Unlock()
	return "stored"
}

// completeLocal runs a claimed job and records its result (or its panic),
// unless a remote result won the race while it ran (then the local bytes
// are duplicate-checked exactly like a late worker post).
func (c *Coordinator) completeLocal(e *distJob, run func() harness.JobResult) {
	var res harness.JobResult
	var payload []byte
	panicked := func() (p any) {
		defer func() { p = recover() }()
		res = run()
		var err error
		if payload, err = harness.EncodeJobResult(res); err != nil {
			// Results are plain value structs: failing to encode one is a bug.
			panic(fmt.Sprintf("serve: encoding local result: %v", err))
		}
		return nil
	}()
	c.mu.Lock()
	if e.state == stateDone {
		mismatch := panicked != nil || string(e.payload) != string(payload)
		c.mu.Unlock()
		c.duplicateResults.Add(1)
		if mismatch {
			c.duplicateMismatches.Add(1)
			c.logf("coordinator: DUPLICATE MISMATCH on %s: local run differs from remote result", e.hash.Hex()[:12])
		}
		return
	}
	e.state = stateDone
	e.payload = payload
	e.res = res
	e.panicked = panicked
	c.localRuns.Add(1) // before the sweep wakes, as in completeRemote
	close(e.done)
	c.mu.Unlock()
}

// failLease returns a leased job to the board (worker decode failure, hash
// mismatch, or corrupt result post) and opens the local claim gate for it.
func (c *Coordinator) failLease(h memo.Hash, leaseID uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.jobs[h]
	if e == nil || e.state != stateLeased || e.leaseID != leaseID {
		return
	}
	e.state = statePending
	e.expired = true
	c.failedLeases.Add(1)
	c.wakeLocked()
}

// RunMissing is the harness.Distributor implementation: publish every miss
// on the board, pump local fallback from the caller's pool, and gather
// results as they stream in (remote completions fill their slots the moment
// they arrive, so table assembly starts as the last job lands). A job that
// fails to encode panics; a local run's panic is raised again here.
func (c *Coordinator) RunMissing(jobs []harness.Job, hashes []memo.Hash, localWorkers int, runLocal func(k int) harness.JobResult) []harness.JobResult {
	n := len(jobs)
	out := make([]harness.JobResult, n)
	entries := make([]*distJob, n)
	defer c.release(entries)
	encoded := make(map[*trace.Trace]*boardTrace)
	for i := range jobs {
		wire, err := harness.EncodeJob(jobs[i])
		var tr *boardTrace
		if err == nil && jobs[i].Engine != nil {
			tr, err = encodeTrace(encoded, jobs[i].Engine.Trace)
		}
		if err != nil {
			panic(fmt.Errorf("serve: job %s: %w", hashes[i].Hex()[:12], err))
		}
		entries[i] = c.enqueue(hashes[i], wire, tr)
	}

	w := localWorkers
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				claimed, waiting := false, false
				for i, e := range entries {
					select {
					case <-e.done:
						continue
					default:
					}
					waiting = true
					if c.tryClaimLocal(e) {
						c.completeLocal(e, func() harness.JobResult { return runLocal(i) })
						claimed = true
						break
					}
				}
				if !waiting {
					return
				}
				if !claimed {
					// Nothing claimable right now (workers hold live
					// leases, or the claim budget hasn't elapsed): re-check
					// shortly. The poll bounds how stale the expiry/budget
					// gates can get; simulation jobs run for milliseconds,
					// so 2ms of slack is noise.
					select {
					case <-stop:
						return
					case <-time.After(2 * time.Millisecond):
					}
				}
			}
		}()
	}

	var panicked any
	for i, e := range entries {
		<-e.done
		out[i] = e.res
		if panicked == nil {
			panicked = e.panicked
		}
	}
	close(stop)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}

// encodeTrace serializes and hashes tr once per RunMissing call: the jobs of
// one phase share trace pointers, so a phase encodes each distinct trace
// once however many jobs name it.
func encodeTrace(encoded map[*trace.Trace]*boardTrace, tr *trace.Trace) (*boardTrace, error) {
	if bt := encoded[tr]; bt != nil {
		return bt, nil
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		return nil, err
	}
	bt := &boardTrace{hash: sha256.Sum256(buf.Bytes()), raw: buf.Bytes()}
	encoded[tr] = bt
	return bt, nil
}

// ---- HTTP handlers ----

// leaseRequest is the wire form of a lease poll.
type leaseRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
	// WaitMS long-polls: with no leasable job, the coordinator holds the
	// request open up to this long before answering empty.
	WaitMS int64 `json:"wait_ms"`
}

// leaseWire is one granted lease: the job's content hash, the lease id to
// quote on the result post, the deadline, the job's config-only PIFSJOB2
// wire (base64 in JSON), and for an engine job the hex content hash of its
// trace, whose PIFSTRC1 bytes the worker fetches from /v1/traces/{hash}
// unless its cache holds them. Trace is empty for numa jobs.
type leaseWire struct {
	Lease uint64 `json:"lease"`
	Hash  string `json:"hash"`
	TTLMS int64  `json:"ttl_ms"`
	Job   []byte `json:"job"`
	Trace string `json:"trace,omitempty"`
}

const (
	maxLeaseBatch   = 16
	minLeaseWait    = time.Millisecond // the wire counts whole milliseconds
	maxLeaseWait    = 30 * time.Second
	maxResultBytes  = 256 << 20
	leaseRecheckDur = 250 * time.Millisecond
)

// LeaseBounds checks one lease poll's batch size and idle wait against what
// a coordinator grants: 1 to 16 jobs, and a wait of 1 ms to 30 s. It
// returns both clamped into those ranges, except that a wait below 1 ms
// stays as it is (the coordinator then answers at once), and an error
// naming the range for each value outside it. The coordinator serves every
// lease request with the clamped values; pifssim -worker refuses -lease-max
// and -poll values that it reports.
func LeaseBounds(jobs int, wait time.Duration) (int, time.Duration, error) {
	var errs []error
	if jobs < 1 || jobs > maxLeaseBatch {
		errs = append(errs, fmt.Errorf("lease batch %d outside [1, %d] jobs per poll", jobs, maxLeaseBatch))
		jobs = min(max(jobs, 1), maxLeaseBatch)
	}
	if wait < minLeaseWait || wait > maxLeaseWait {
		errs = append(errs, fmt.Errorf("lease wait %v outside [%v, %v]", wait, minLeaseWait, maxLeaseWait))
		wait = min(wait, maxLeaseWait)
	}
	return jobs, wait, errors.Join(errs...)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req leaseRequest
	if !decodeRequest(w, r, &req, "decoding lease request") {
		return
	}
	if req.Worker == "" {
		req.Worker = "anon"
	}
	// A request outside the bounds is served clamped, not refused.
	var wait time.Duration
	req.Max, wait, _ = LeaseBounds(req.Max, time.Duration(req.WaitMS)*time.Millisecond)
	deadline := time.Now().Add(wait)

	c.touchWorker(req.Worker)
	var leased []*distJob
	for {
		leased = c.tryLease(req.Worker, req.Max)
		if len(leased) > 0 {
			break
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		// Wait for a publish, but re-check periodically so expired leases
		// become re-issuable without a publish event.
		if remaining > leaseRecheckDur {
			remaining = leaseRecheckDur
		}
		c.mu.Lock()
		wake := c.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-time.After(remaining):
		case <-r.Context().Done():
			writeJSON(w, http.StatusOK, map[string]any{"leases": []leaseWire{}})
			return
		}
	}
	if len(leased) > 0 {
		c.mu.Lock()
		if wi := c.workers[req.Worker]; wi != nil {
			wi.leased += int64(len(leased))
		}
		c.mu.Unlock()
	}
	out := make([]leaseWire, len(leased))
	for i, e := range leased {
		out[i] = leaseWire{
			Lease: e.leaseID,
			Hash:  e.hash.Hex(),
			TTLMS: c.cfg.LeaseTTL.Milliseconds(),
			Job:   e.wire,
		}
		if e.trace != nil {
			out[i].Trace = e.trace.hash.Hex()
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"leases": out})
}

func parseHash(s string) (memo.Hash, error) {
	var h memo.Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return h, fmt.Errorf("bad hash %q (want %d hex bytes)", s, len(h))
	}
	copy(h[:], b)
	return h, nil
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	q := r.URL.Query()
	h, err := parseHash(q.Get("hash"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "result post: %v", err)
		return
	}
	var leaseID uint64
	fmt.Sscanf(q.Get("lease"), "%d", &leaseID)
	worker := q.Get("worker")
	if worker == "" {
		worker = "anon"
	}
	c.touchWorker(worker)
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxResultBytes+1))
	if err != nil || len(raw) > maxResultBytes {
		c.corruptResults.Add(1)
		c.failLease(h, leaseID)
		writeError(w, http.StatusBadRequest, "result post for %s: unreadable or oversized body", h.Hex()[:12])
		return
	}
	// Same framing, same decoder, same rejection semantics as a damaged
	// cache record: anything suspect is discarded before it can touch the
	// store, and the lease goes back on the board.
	payload, ok := memo.DecodeFrame(raw, h)
	if !ok {
		c.corruptResults.Add(1)
		c.failLease(h, leaseID)
		c.logf("coordinator: corrupt result frame for %s from %s (%d bytes); lease returned", h.Hex()[:12], worker, len(raw))
		writeError(w, http.StatusBadRequest, "result post for %s: corrupt frame", h.Hex()[:12])
		return
	}
	res, derr := harness.DecodeJobResult(payload)
	if derr != nil {
		c.corruptResults.Add(1)
		c.failLease(h, leaseID)
		c.logf("coordinator: undecodable result payload for %s from %s: %v", h.Hex()[:12], worker, derr)
		writeError(w, http.StatusBadRequest, "result post for %s: undecodable payload", h.Hex()[:12])
		return
	}
	status := c.completeRemote(h, payload, res, worker, q.Get("cached") == "1")
	code := http.StatusOK
	if status == "late" {
		code = http.StatusGone
	}
	writeJSON(w, code, map[string]string{"status": status})
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	q := r.URL.Query()
	h, err := parseHash(q.Get("hash"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "fail post: %v", err)
		return
	}
	var leaseID uint64
	fmt.Sscanf(q.Get("lease"), "%d", &leaseID)
	if id := q.Get("worker"); id != "" {
		c.touchWorker(id)
	}
	c.failLease(h, leaseID)
	writeJSON(w, http.StatusOK, map[string]string{"status": "returned"})
}

// handleTrace answers GET /v1/traces/{hash} with the PIFSTRC1 bytes of a
// trace an entry on the board names; an unknown or released hash is 404.
func (c *Coordinator) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	h, err := parseHash(strings.TrimPrefix(r.URL.Path, "/v1/traces/"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "trace fetch: %v", err)
		return
	}
	c.mu.Lock()
	tr := c.traces[h]
	c.mu.Unlock()
	if tr == nil {
		writeError(w, http.StatusNotFound, "no in-flight job names trace %s", h.Hex()[:12])
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(tr.raw)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	now := time.Now()
	c.mu.Lock()
	workers := make([]WorkerStatus, 0, len(c.workers))
	for id, wi := range c.workers {
		workers = append(workers, WorkerStatus{
			ID:         id,
			LastSeenMS: now.Sub(wi.lastSeen).Milliseconds(),
			Leased:     wi.leased,
			Completed:  wi.completed,
			CacheHits:  wi.cacheHits,
		})
	}
	c.mu.Unlock()
	sortWorkers(workers)
	writeJSON(w, http.StatusOK, map[string]any{
		"board":   c.Stats(),
		"workers": workers,
		"cache":   harness.CacheStats(),
	})
}

func sortWorkers(ws []WorkerStatus) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].ID < ws[j-1].ID; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}
