// worker.go is the pull half of distributed sweep execution: a loop that
// leases jobs from a coordinator, answers each from the worker's own result
// cache or simulates it (only jobs it has never seen), and posts CRC-framed
// results back. A cache hit travels as stored: the worker posts the entry's
// bytes without decoding them, and the coordinator, which decodes every
// post, refuses one that does not decode.
//
// A lease names an engine job's trace by its content hash. The worker keeps
// the traces it has checked in a bounded cache, so it fetches each trace
// from the coordinator (GET /v1/traces/{hash}) once, not once per job, and
// hashes the decoded trace once per fetch, not once per job.
//
// The worker trusts nothing about the wire: a fetched trace is used only
// if its SHA-256 matches the name the lease gave it and it decodes as
// PIFSTRC1, and every leased job is decoded, its trace attached, its
// content hash recomputed from the DECODED form (over the decoded trace's
// own hash, which the fetched bytes' SHA-256 need not equal), and compared
// against the hash it was leased under. A failed fetch, codec drift or
// corrupt lease turns into a returned lease (the coordinator runs the job
// itself), never into a result stored under the wrong key.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/trace"
)

// WorkerConfig configures one pull worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. http://host:8080).
	Coordinator string
	// ID names the worker in leases, logs, and /v1/jobs/status; default
	// hostname-pid.
	ID string
	// Store is the worker's local result cache; nil uses a process-lifetime
	// in-memory store. A disk-backed store (memo.Open) makes warm
	// distributed sweeps re-simulate nothing across worker restarts.
	Store *memo.Store
	// Runner answers leased jobs (Runner.RunJobPayload); nil uses
	// harness.NewRunner(0). The pool width is unused: a worker runs one
	// lease at a time on its loop goroutine, and RunJobPayload never reads
	// its receiver.
	Runner *harness.Runner
	// LeaseMax is how many jobs to lease per poll (default 4; the
	// coordinator caps at 16).
	LeaseMax int
	// Poll bounds one idle long-poll at the coordinator (default 1s).
	Poll time.Duration
	// Log receives per-job lines; nil silences them.
	Log *log.Logger
}

func (w WorkerConfig) withDefaults() WorkerConfig {
	if w.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		w.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if w.Store == nil {
		w.Store = memo.InMemory()
	}
	if w.Runner == nil {
		w.Runner = harness.NewRunner(0)
	}
	if w.LeaseMax < 1 {
		w.LeaseMax = 4
	}
	if w.Poll <= 0 {
		w.Poll = time.Second
	}
	return w
}

// Bounds on the traces a worker fetches and keeps, in PIFSTRC1 bytes. The
// experiments' traces are tens of KB each (about 0.4 MB for the ten a full
// sweep names), so both bounds only stop a broken coordinator.
const (
	maxTraceBytes   = 16 << 20 // one fetched trace
	traceCacheBytes = 64 << 20 // every trace a worker keeps
)

// traceCache holds the traces a worker has fetched and checked, by the name
// a lease gave them, within a budget of fetched bytes; the oldest leave
// first to make room. Only the worker loop touches it, so it needs no lock.
// The jobs that run on a cached trace share it read-only.
type traceCache struct {
	budget, used int
	byHash       map[memo.Hash]cachedTrace
	order        []memo.Hash // insertion order, oldest first
}

// cachedTrace is one fetched trace: decoded, with the hash every job key
// over it folds in, and the size of the bytes it was decoded from.
type cachedTrace struct {
	tr   *trace.Trace
	hash [32]byte // tr.Hash(), computed once per fetch
	size int
}

func newTraceCache(budget int) *traceCache {
	return &traceCache{budget: budget, byHash: make(map[memo.Hash]cachedTrace)}
}

// add keeps ct under name, evicting the oldest traces until it fits. A
// trace larger than the whole budget is not kept.
func (c *traceCache) add(name memo.Hash, ct cachedTrace) {
	if _, ok := c.byHash[name]; ok || ct.size > c.budget {
		return
	}
	for c.used+ct.size > c.budget {
		old := c.order[0]
		c.order = c.order[1:]
		c.used -= c.byHash[old].size
		delete(c.byHash, old)
	}
	c.byHash[name] = ct
	c.order = append(c.order, name)
	c.used += ct.size
}

// worker is one RunWorker loop's state.
type worker struct {
	cfg    WorkerConfig
	base   string
	client *http.Client
	traces *traceCache
}

func newWorker(cfg WorkerConfig) *worker {
	cfg = cfg.withDefaults()
	return &worker{
		cfg:  cfg,
		base: strings.TrimRight(cfg.Coordinator, "/"),
		// One client for the whole loop: connection reuse (keep-alive)
		// makes the lease/result round-trips cheap.
		client: &http.Client{},
		traces: newTraceCache(traceCacheBytes),
	}
}

func (w *worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		w.cfg.Log.Printf(format, args...)
	}
}

// RunWorker pull-loops against the coordinator until ctx ends. Transient
// coordinator errors back off and retry; the only error return is a context
// cancellation, so a fleet survives coordinator restarts.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	w := newWorker(cfg)
	w.logf("worker %s: pulling from %s (cache: %s)", w.cfg.ID, w.base, storeDesc(w.cfg.Store))

	backoff := 100 * time.Millisecond
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		leases, err := w.requestLeases(ctx)
		if err != nil {
			w.logf("worker %s: lease poll failed: %v (retrying in %v)", w.cfg.ID, err, backoff)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
			continue
		}
		backoff = 100 * time.Millisecond
		for _, l := range leases {
			if err := ctx.Err(); err != nil {
				return err
			}
			w.runLease(ctx, l)
		}
	}
}

func storeDesc(st *memo.Store) string {
	if st.Dir() == "" {
		return "memory-only"
	}
	return st.Dir()
}

// requestLeases polls for leases. It reads at most maxRequestBytes of the
// response, far past a full 16-job lease of config-only wires; a longer
// response fails the poll.
func (w *worker) requestLeases(ctx context.Context) ([]leaseWire, error) {
	body, _ := json.Marshal(leaseRequest{
		Worker: w.cfg.ID,
		Max:    w.cfg.LeaseMax,
		WaitMS: w.cfg.Poll.Milliseconds(),
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/jobs/lease", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("lease: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes+1))
	if err != nil {
		return nil, fmt.Errorf("lease: reading response: %w", err)
	}
	if len(raw) > maxRequestBytes {
		return nil, fmt.Errorf("lease: response exceeds %d bytes", maxRequestBytes)
	}
	var out struct {
		Leases []leaseWire `json:"leases"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("lease: decoding response: %w", err)
	}
	return out.Leases, nil
}

// runLease executes one leased job and posts the result (or returns the
// lease on any local failure). A job that panics returns its lease too, and
// the worker keeps polling.
func (w *worker) runLease(ctx context.Context, l leaseWire) {
	defer func() {
		if p := recover(); p != nil {
			w.logf("worker %s: lease %d (%.12s): job panicked: %v; returning", w.cfg.ID, l.Lease, l.Hash, p)
			w.postFail(ctx, l)
		}
	}()
	start := time.Now()
	job, want, err := w.resolve(ctx, l)
	if err != nil {
		w.logf("worker %s: lease %d (%.12s): %v; returning", w.cfg.ID, l.Lease, l.Hash, err)
		w.postFail(ctx, l)
		return
	}

	payload, cached, err := w.cfg.Runner.RunJobPayload(w.cfg.Store, job, want)
	if err != nil {
		w.logf("worker %s: lease %d (%s): encoding result: %v; returning", w.cfg.ID, l.Lease, l.Hash[:12], err)
		w.postFail(ctx, l)
		return
	}
	status, code, err := w.postResult(ctx, l, memo.EncodeFrame(want, payload), cached)
	how := "simulated"
	if cached {
		how = "cache hit"
		if code == http.StatusBadRequest { // refused: the stored bytes do not decode
			w.cfg.Store.Delete(want) // so the next lease of this job simulates it
		}
	}
	if err != nil {
		w.logf("worker %s: job %s %s in %v, but result post failed: %v", w.cfg.ID, l.Hash[:12], how, time.Since(start).Round(time.Millisecond), err)
		return
	}
	w.logf("worker %s: job %s %s in %v (%s)", w.cfg.ID, l.Hash[:12], how, time.Since(start).Round(time.Millisecond), status)
}

// resolve rebuilds the job a lease names, its trace attached, and checks
// that it reproduces the hash it was leased under.
func (w *worker) resolve(ctx context.Context, l leaseWire) (harness.Job, memo.Hash, error) {
	want, err := parseHash(l.Hash)
	if err != nil {
		return harness.Job{}, want, err
	}
	job, err := harness.DecodeJob(l.Job)
	if err != nil {
		return harness.Job{}, want, fmt.Errorf("undecodable job: %w", err)
	}
	if (job.Engine != nil) != (l.Trace != "") {
		return harness.Job{}, want, fmt.Errorf("trace name %q does not fit the job's kind", l.Trace)
	}
	var traceHash [32]byte
	if job.Engine != nil {
		ct, err := w.trace(ctx, l.Trace)
		if err != nil {
			return harness.Job{}, want, err
		}
		job.Engine.Trace, traceHash = ct.tr, ct.hash
	}
	if got, err := job.HashWithTraceHash(traceHash); err != nil || got != want {
		// The decoded job, trace attached, does not reproduce the leased
		// identity: codec drift, a mixed-version fleet or a wrong trace.
		// Running it would compute SOME result, but not the one this hash
		// names — refuse.
		return harness.Job{}, want, fmt.Errorf("hash mismatch (want %.12s)", l.Hash)
	}
	return job, want, nil
}

// trace returns the trace a lease names by its hex content hash: from the
// cache, or fetched from the coordinator and kept once its SHA-256 matches
// the name and it decodes as PIFSTRC1. The decoded trace is hashed here,
// once per fetch, and that hash keys every job over it: trace.Read ignores
// bytes after the last bag, so the name need not be the decoded trace's
// hash.
func (w *worker) trace(ctx context.Context, name string) (cachedTrace, error) {
	h, err := parseHash(name)
	if err != nil {
		return cachedTrace{}, fmt.Errorf("trace name: %w", err)
	}
	if ct, ok := w.traces.byHash[h]; ok {
		return ct, nil
	}
	raw, err := w.fetchTrace(ctx, name)
	if err != nil {
		return cachedTrace{}, err
	}
	if sum := sha256.Sum256(raw); sum != h {
		return cachedTrace{}, fmt.Errorf("trace %.12s: fetched %d bytes hash to %x", name, len(raw), sum[:6])
	}
	tr, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		return cachedTrace{}, fmt.Errorf("trace %.12s: %w", name, err)
	}
	th, err := tr.Hash()
	if err != nil {
		return cachedTrace{}, fmt.Errorf("trace %.12s: %w", name, err)
	}
	ct := cachedTrace{tr: tr, hash: th, size: len(raw)}
	w.traces.add(h, ct)
	return ct, nil
}

// fetchTrace reads the bytes the coordinator serves for a trace name, at
// most maxTraceBytes of them.
func (w *worker) fetchTrace(ctx context.Context, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/traces/"+name, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("trace fetch: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, fmt.Errorf("trace fetch: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxTraceBytes+1))
	if err != nil {
		return nil, fmt.Errorf("trace fetch: %w", err)
	}
	if len(raw) > maxTraceBytes {
		return nil, fmt.Errorf("trace fetch: body exceeds %d bytes", maxTraceBytes)
	}
	return raw, nil
}

// leaseQuery names a lease and this worker in the query of a result or fail
// post, each value escaped: a worker ID may hold any character.
func (w *worker) leaseQuery(l leaseWire) url.Values {
	return url.Values{
		"hash":   {l.Hash},
		"lease":  {strconv.FormatUint(l.Lease, 10)},
		"worker": {w.cfg.ID},
	}
}

func (w *worker) postResult(ctx context.Context, l leaseWire, frame []byte, cached bool) (status string, code int, err error) {
	q := w.leaseQuery(l)
	q.Set("cached", "0")
	if cached {
		q.Set("cached", "1")
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/jobs/result?"+q.Encode(), bytes.NewReader(frame))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Status string `json:"status"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil {
		out.Status = resp.Status
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGone {
		return "", resp.StatusCode, fmt.Errorf("result post: status %d (%s)", resp.StatusCode, out.Status)
	}
	return out.Status, resp.StatusCode, nil
}

func (w *worker) postFail(ctx context.Context, l leaseWire) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/jobs/fail?"+w.leaseQuery(l).Encode(), nil)
	if err != nil {
		return
	}
	if resp, err := w.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}
