package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/trace"
)

func traceTableLen(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}

// handlerTransport serves a client's requests from an in-process handler,
// so a worker can be driven against a fake coordinator without a socket.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// encodeJobTrace returns the board's form of an engine job's trace.
func encodeJobTrace(t testing.TB, j harness.Job) *boardTrace {
	t.Helper()
	tr, err := encodeTrace(make(map[*trace.Trace]*boardTrace), j.Engine.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestBadTraceFetchRunsLocally wraps the coordinator so that every trace
// fetch answers flipped bytes, truncated bytes or a 404. Each such lease
// must come back to the board and run locally: the table is byte-identical
// to a local run, and no bad trace reaches a result.
func TestBadTraceFetchRunsLocally(t *testing.T) {
	want := referenceTable(t, "fig12a")
	cases := []struct {
		name   string
		mangle func(w http.ResponseWriter, body []byte)
	}{
		{"flipped", func(w http.ResponseWriter, body []byte) {
			b := bytes.Clone(body)
			b[len(b)/2] ^= 0x01
			w.Write(b)
		}},
		{"truncated", func(w http.ResponseWriter, body []byte) { w.Write(body[:len(body)/2]) }},
		{"404", func(w http.ResponseWriter, body []byte) { http.NotFound(w, nil) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, c := distServerWrapped(t, CoordinatorConfig{
				LeaseTTL:    10 * time.Second,
				ClaimBudget: 10 * time.Second,
			}, func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if !strings.HasPrefix(r.URL.Path, "/v1/traces/") {
						h.ServeHTTP(w, r)
						return
					}
					r.Header.Del("Accept-Encoding")
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, r)
					if rec.Code != http.StatusOK {
						w.WriteHeader(rec.Code)
						return
					}
					tc.mangle(w, rec.Body.Bytes())
				})
			})
			ctx, cancel := context.WithCancel(context.Background())
			w1 := startWorker(ctx, srv.URL, "w1", memo.InMemory())
			w2 := startWorker(ctx, srv.URL, "w2", memo.InMemory())
			waitLive(t, srv, 2)

			got := getTable(t, srv, "fig12a")
			cancel()
			<-w1
			<-w2
			if !bytes.Equal(got, want) {
				t.Error("table with bad trace fetches differs from local run")
			}
			st := c.Stats()
			if st.FailedLeases == 0 || st.LocalRuns == 0 || st.CorruptResults != 0 {
				t.Errorf("failed_leases=%d local_runs=%d corrupt_results=%d, want >0, >0, 0",
					st.FailedLeases, st.LocalRuns, st.CorruptResults)
			}
			if st.DuplicateMismatches != 0 {
				t.Errorf("%d duplicate mismatches", st.DuplicateMismatches)
			}
		})
	}
}

// TestWorkerFetchesEachTraceOnce counts trace fetches over two sweeps by
// one worker, the second against a cold coordinator cache: the worker
// fetches each distinct trace once and answers later leases from its cache.
func TestWorkerFetchesEachTraceOnce(t *testing.T) {
	var fetches atomic.Int64
	srv, c := distServerWrapped(t, CoordinatorConfig{
		LeaseTTL:    10 * time.Second,
		ClaimBudget: 10 * time.Second,
	}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/traces/") {
				fetches.Add(1)
			}
			h.ServeHTTP(w, r)
		})
	})
	distinct := make(map[memo.Hash]bool)
	for _, j := range harness.Jobs("fig12a") {
		if j.Engine != nil {
			distinct[encodeJobTrace(t, j).hash] = true
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := startWorker(ctx, srv.URL, "w0", memo.InMemory())
	waitLive(t, srv, 1)
	first := getTable(t, srv, "fig12a")
	harness.SetStore(memo.InMemory()) // distServer's cleanup restores the original
	second := getTable(t, srv, "fig12a")
	cancel()
	<-done

	if !bytes.Equal(first, second) {
		t.Error("second sweep's table differs from the first")
	}
	if st := c.Stats(); st.FailedLeases != 0 || st.LocalRuns != 0 {
		t.Errorf("failed_leases=%d local_runs=%d, want 0/0", st.FailedLeases, st.LocalRuns)
	}
	if got := fetches.Load(); got != int64(len(distinct)) {
		t.Errorf("%d trace fetches over two sweeps, want one per distinct trace (%d)", got, len(distinct))
	}
	if n := traceTableLen(c); n != 0 {
		t.Errorf("%d traces left in the table after the sweeps", n)
	}
}

// TestTraceTableRefcounts runs two concurrent sweeps over the same jobs:
// while both wait, each trace in the table is counted once per board entry
// naming it, however many sweeps share that entry; once both release, the
// table is empty.
func TestTraceTableRefcounts(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{ClaimBudget: time.Millisecond})
	jobs := harness.Jobs("fig12a")
	hashes := make([]memo.Hash, len(jobs))
	for i, j := range jobs {
		h, err := j.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	gate := make(chan struct{})
	runLocal := func(k int) harness.JobResult {
		<-gate
		return harness.JobResult{}
	}
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.RunMissing(jobs, hashes, 1, runLocal)
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); c.Stats().SharedJobs < int64(len(jobs)); {
		if !time.Now().Before(deadline) {
			t.Fatal("second sweep never shared the first sweep's entries")
		}
		time.Sleep(time.Millisecond)
	}

	c.mu.Lock()
	named := make(map[memo.Hash]int)
	for _, e := range c.jobs {
		if e.trace == nil {
			continue
		}
		named[e.trace.hash]++
		if c.traces[e.trace.hash] != e.trace {
			t.Errorf("entry %s names a trace the table does not hold", e.hash.Hex()[:12])
		}
	}
	for h, tr := range c.traces {
		if tr.refs != named[h] {
			t.Errorf("trace %s: %d refs, %d entries name it", h.Hex()[:12], tr.refs, named[h])
		}
		if sha256.Sum256(tr.raw) != h {
			t.Errorf("trace %s: bytes do not hash to the name", h.Hex()[:12])
		}
	}
	if len(named) != len(c.traces) || len(c.traces) == 0 {
		t.Errorf("%d traces in the table, %d named by entries", len(c.traces), len(named))
	}
	c.mu.Unlock()

	close(gate)
	wg.Wait()
	if n := traceTableLen(c); n != 0 {
		t.Errorf("%d traces left in the table after both sweeps released", n)
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("%d entries left on the board", st.Inflight)
	}
}

// TestTraceEndpoint: GET /v1/traces/{hash} answers the PIFSTRC1 bytes of a
// trace an entry names, 404 for an unknown or released hash, 400 for a
// malformed one, 405 for any other method, and 503 with no coordinator.
func TestTraceEndpoint(t *testing.T) {
	srv, c := distServer(t, CoordinatorConfig{})
	job := harness.Jobs("fig12a")[0]
	h, err := job.Hash()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := harness.EncodeJob(job)
	if err != nil {
		t.Fatal(err)
	}
	tr := encodeJobTrace(t, job)
	if th, err := job.Engine.Trace.Hash(); err != nil || memo.Hash(th) != tr.hash {
		t.Fatalf("board names the trace %s, trace.Hash says %x (%v)", tr.hash.Hex()[:12], th[:6], err)
	}
	e := c.enqueue(h, wire, tr)

	fetch := func(method, path string) (int, http.Header, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, body := do(t, http.DefaultClient, req)
		return resp.StatusCode, resp.Header, body
	}
	path := "/v1/traces/" + tr.hash.Hex()
	code, hdr, body := fetch("GET", path)
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/octet-stream" || !bytes.Equal(body, tr.raw) {
		t.Errorf("GET %s: %d %q, %d bytes; want 200 octet-stream with the trace's %d bytes",
			path[:24], code, hdr.Get("Content-Type"), len(body), len(tr.raw))
	}
	var unknown memo.Hash
	unknown[0] = 9
	if code, _, _ := fetch("GET", "/v1/traces/"+unknown.Hex()); code != http.StatusNotFound {
		t.Errorf("unknown hash: status %d, want 404", code)
	}
	if code, _, _ := fetch("GET", "/v1/traces/zz"); code != http.StatusBadRequest {
		t.Errorf("malformed hash: status %d, want 400", code)
	}
	if code, _, _ := fetch("POST", path); code != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", code)
	}
	c.release([]*distJob{e})
	if code, _, _ := fetch("GET", path); code != http.StatusNotFound {
		t.Errorf("released hash: status %d, want 404", code)
	}

	plain := testServer(t)
	resp, _ := get(t, plain.URL+path)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("no coordinator: status %d, want 503", resp.StatusCode)
	}
}

// TestWorkerTraceCacheBudget adds traces of mixed sizes to a small cache:
// its bytes never exceed the budget, it holds exactly the newest traces
// that fit (the oldest leave first), and a trace larger than the whole
// budget is not kept.
func TestWorkerTraceCacheBudget(t *testing.T) {
	const budget = 1000
	c := newTraceCache(budget)
	sizes := make(map[memo.Hash]int)
	var added []memo.Hash // kept traces, oldest first
	for i, size := range []int{400, 300, 500, 1000, 1001, 200, 700, 100, 1, 999} {
		var h memo.Hash
		h[0] = byte(i + 1)
		c.add(h, cachedTrace{tr: &trace.Trace{}, size: size})
		sum := 0
		for _, e := range c.byHash {
			sum += e.size
		}
		if sum != c.used || c.used > budget || len(c.order) != len(c.byHash) {
			t.Fatalf("after adding %d bytes: %d bytes held, %d counted, %d entries, %d in order (budget %d)",
				size, sum, c.used, len(c.byHash), len(c.order), budget)
		}
		if size > budget {
			if _, kept := c.byHash[h]; kept {
				t.Fatalf("kept a %d-byte trace over a %d-byte budget", size, budget)
			}
			continue
		}
		sizes[h] = size
		added = append(added, h)
		fit, total := 0, 0
		for k := len(added) - 1; k >= 0 && total+sizes[added[k]] <= budget; k-- {
			total += sizes[added[k]]
			fit++
		}
		for _, h := range added[len(added)-fit:] {
			if _, ok := c.byHash[h]; !ok {
				t.Fatalf("after adding %d bytes: a trace among the newest that fit was evicted", size)
			}
		}
		if len(c.byHash) != fit {
			t.Fatalf("after adding %d bytes: %d traces held, the newest %d fit", size, len(c.byHash), fit)
		}
	}
}

// do sends req and returns the response with its body read.
func do(t *testing.T, client *http.Client, req *http.Request) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestWorkerBoundsLeaseResponse points a worker at a fake coordinator whose
// lease response, a real lease padded past maxRequestBytes, is too long:
// the poll fails into the back-off, and the worker never acts on the lease.
func TestWorkerBoundsLeaseResponse(t *testing.T) {
	var polls, posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs/lease" {
			posts.Add(1)
			return
		}
		polls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"leases":[{"lease":1,"hash":"%s","ttl_ms":1000,"job":""}],"pad":"%s"}`,
			memo.Hash{}.Hex(), strings.Repeat("x", maxRequestBytes))
	}))
	defer srv.Close()
	cfg := WorkerConfig{Coordinator: srv.URL, ID: "bounded", Poll: 10 * time.Millisecond}

	if _, err := newWorker(cfg).requestLeases(context.Background()); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprint(maxRequestBytes)) {
		t.Fatalf("oversized lease response: err %v, want one naming the %d-byte bound", err, maxRequestBytes)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := RunWorker(ctx, cfg); err == nil {
		t.Error("worker returned without error before its context ended")
	}
	if polls.Load() < 2 || posts.Load() != 0 {
		t.Errorf("%d polls and %d posts, want at least 2 polls and no post", polls.Load(), posts.Load())
	}
}

// TestWorkerRefusesMisnamedTrace: a lease whose trace name does not fit its
// job's kind, an engine job with no trace name or a numa job with one, is
// returned without a trace fetch or a run.
func TestWorkerRefusesMisnamedTrace(t *testing.T) {
	eng := harness.Jobs("fig12a")[0]
	numa := harness.Jobs("fig5")[0]
	if eng.Engine == nil || numa.Numa == nil {
		t.Fatal("fig12a job 0 is not an engine job, or fig5 job 0 not a numa job")
	}
	name := encodeJobTrace(t, eng).hash.Hex()
	for _, tc := range []struct {
		kind  string
		job   harness.Job
		trace string
	}{
		{"engine job with no trace name", eng, ""},
		{"numa job with a trace name", numa, name},
	} {
		var fails, other int
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/jobs/fail", func(w http.ResponseWriter, r *http.Request) { fails++ })
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) { other++ })
		w := newWorker(WorkerConfig{ID: "t", Runner: harness.NewRunner(1)})
		w.base = "http://coordinator"
		w.client = &http.Client{Transport: handlerTransport{mux}}
		h, err := tc.job.Hash()
		if err != nil {
			t.Fatal(err)
		}
		wire, err := harness.EncodeJob(tc.job)
		if err != nil {
			t.Fatal(err)
		}
		w.runLease(context.Background(), leaseWire{Lease: 1, Hash: h.Hex(), Job: wire, Trace: tc.trace})
		if fails != 1 || other != 0 {
			t.Errorf("%s: %d fail posts and %d other requests, want 1 and 0", tc.kind, fails, other)
		}
	}
}

// TestWorkerBoundsTraceFetch serves, under its own hash, a valid trace
// whose PIFSTRC1 form is longer than maxTraceBytes: the worker stops
// reading at the bound, refuses the trace naming the bound, and keeps
// nothing.
func TestWorkerBoundsTraceFetch(t *testing.T) {
	idx := make([]uint32, 1<<20) // the decoder's largest bag
	big := &trace.Trace{Name: "big", Tables: 1, RowsPerTable: 1}
	for len(big.Bags)*4*len(idx) <= maxTraceBytes {
		big.Bags = append(big.Bags, trace.Bag{Indices: idx})
	}
	var buf bytes.Buffer
	if err := big.Write(&buf); err != nil {
		t.Fatal(err)
	}
	name := memo.Hash(sha256.Sum256(buf.Bytes())).Hex()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/traces/", func(w http.ResponseWriter, r *http.Request) { w.Write(buf.Bytes()) })
	w := newWorker(WorkerConfig{ID: "t", Runner: harness.NewRunner(1)})
	w.base = "http://coordinator"
	w.client = &http.Client{Transport: handlerTransport{mux}}
	if _, err := w.trace(context.Background(), name); err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxTraceBytes)) {
		t.Errorf("%d-byte trace: err %v, want one naming the %d-byte bound", buf.Len(), err, maxTraceBytes)
	}
	if len(w.traces.byHash) != 0 {
		t.Errorf("%d traces cached after a refused fetch", len(w.traces.byHash))
	}
}

// TestWorkerKeysMatchFullTraceHash leases every first-phase engine job of
// every experiment to one worker, under the key Job.Hash gives it (the key
// built from the full trace hash, by TestJobHashMatchesFullTraceHash), from
// a fake coordinator that serves each trace's PIFSTRC1 bytes. Every lease
// must resolve: the worker keys each job from the hash its cache holds for
// the fetched, decoded trace. The first trace is served with one trailing
// byte and named by those bytes' SHA-256. trace.Read ignores the byte, so
// that trace's jobs must resolve too, and the cache must hold the decoded
// trace's own hash for it, not its name. Each trace is fetched once.
func TestWorkerKeysMatchFullTraceHash(t *testing.T) {
	served := make(map[string][]byte) // by name
	names := make(map[*trace.Trace]memo.Hash)
	var trailing *trace.Trace
	fetches := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/traces/", func(w http.ResponseWriter, r *http.Request) {
		fetches++
		w.Write(served[strings.TrimPrefix(r.URL.Path, "/v1/traces/")])
	})
	w := newWorker(WorkerConfig{ID: "t", Runner: harness.NewRunner(1)})
	w.base = "http://coordinator"
	w.client = &http.Client{Transport: handlerTransport{mux}}

	n := 0
	for _, id := range harness.IDs() {
		for i, j := range harness.Jobs(id) {
			if j.Engine == nil {
				continue
			}
			name, ok := names[j.Engine.Trace]
			if !ok {
				raw := encodeJobTrace(t, j).raw
				if trailing == nil {
					trailing = j.Engine.Trace
					raw = append(bytes.Clone(raw), 0)
				}
				name = sha256.Sum256(raw)
				names[j.Engine.Trace] = name
				served[name.Hex()] = raw
			}
			key, err := j.Hash()
			if err != nil {
				t.Fatal(err)
			}
			wire, err := harness.EncodeJob(j)
			if err != nil {
				t.Fatalf("%s job %d: %v", id, i, err)
			}
			if _, _, err := w.resolve(context.Background(), leaseWire{Lease: 1, Hash: key.Hex(), Job: wire, Trace: name.Hex()}); err != nil {
				t.Errorf("%s job %d: %v", id, i, err)
			}
			n++
		}
	}
	if n == 0 || trailing == nil {
		t.Fatal("no experiment has first-phase engine jobs")
	}
	t.Logf("%d engine jobs over %d traces resolved", n, len(names))
	for tr, name := range names {
		want, err := tr.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if ct, ok := w.traces.byHash[name]; !ok || ct.hash != want {
			t.Errorf("trace %s: cached=%v with hash %x, want the decoded trace's %x", name.Hex()[:12], ok, ct.hash[:6], want[:6])
		}
		if tr == trailing && name == want {
			t.Error("the trace served with a trailing byte is named by its own hash")
		}
	}
	if fetches != len(names) {
		t.Errorf("%d trace fetches, want one per trace (%d)", fetches, len(names))
	}
}
