package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
)

// referenceTable renders an experiment with no cache and no distributor —
// the byte-identity oracle every distributed run is compared against.
func referenceTable(t *testing.T, id string) []byte {
	t.Helper()
	prevStore := harness.SetStore(nil)
	prevDist := harness.SetDistributor(nil)
	var buf bytes.Buffer
	err := harness.Run(id, &buf)
	harness.SetStore(prevStore)
	harness.SetDistributor(prevDist)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// distServer stands up a coordinator-backed sweep service with a fresh
// in-memory result cache, restoring the process-global store and distributor
// on cleanup.
func distServer(t *testing.T, cfg CoordinatorConfig) (*httptest.Server, *Coordinator) {
	t.Helper()
	return distServerWrapped(t, cfg, func(h http.Handler) http.Handler { return h })
}

// distServerWrapped is distServer with the service's handler wrapped, so a
// test can tamper with or count what the coordinator serves.
func distServerWrapped(t *testing.T, cfg CoordinatorConfig, wrap func(http.Handler) http.Handler) (*httptest.Server, *Coordinator) {
	t.Helper()
	c := NewCoordinator(cfg)
	prevStore := harness.SetStore(memo.InMemory())
	prevDist := harness.SetDistributor(c.RunMissing)
	srv := httptest.NewServer(wrap(Handler(Options{Coordinator: c})))
	t.Cleanup(func() {
		srv.Close()
		harness.SetStore(prevStore)
		harness.SetDistributor(prevDist)
	})
	return srv, c
}

// startWorker runs an in-process pull worker against the server; the
// returned channel closes when the worker exits.
func startWorker(ctx context.Context, url, id string, store *memo.Store) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, WorkerConfig{
			Coordinator: url,
			ID:          id,
			Store:       store,
			LeaseMax:    4,
			Poll:        50 * time.Millisecond,
		})
	}()
	return done
}

// waitLive blocks until the coordinator has seen n live workers, so the
// claim-budget gate is armed before a sweep publishes jobs.
func waitLive(t *testing.T, srv *httptest.Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/v1/jobs/status")
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Board DistStats `json:"board"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.Board.LiveWorkers >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no %d live workers within 5s", n)
}

func getTable(t *testing.T, srv *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/run?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// TestDistributedByteIdentity is the tentpole property: a sweep distributed
// across a pull fleet produces byte-identical tables to a local run at every
// worker count, and with the claim budget holding locals off, every job
// completes remotely. Once the sweep is done, the board serves no trace.
func TestDistributedByteIdentity(t *testing.T) {
	want := referenceTable(t, "fig12a")
	jobs := len(harness.Jobs("fig12a"))
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, c := distServer(t, CoordinatorConfig{
				LeaseTTL:    10 * time.Second,
				ClaimBudget: 10 * time.Second,
			})
			ctx, cancel := context.WithCancel(context.Background())
			var dones []<-chan struct{}
			for i := 0; i < workers; i++ {
				dones = append(dones, startWorker(ctx, srv.URL, fmt.Sprintf("w%d", i), memo.InMemory()))
			}
			waitLive(t, srv, workers)

			got := getTable(t, srv, "fig12a")
			cancel()
			for _, d := range dones {
				<-d
			}
			if !bytes.Equal(got, want) {
				t.Error("distributed table differs from local run")
			}
			st := c.Stats()
			if st.RemoteCompleted != int64(jobs) || st.LocalRuns != 0 {
				t.Errorf("remote=%d local=%d, want all %d jobs remote", st.RemoteCompleted, st.LocalRuns, jobs)
			}
			if st.DuplicateMismatches != 0 {
				t.Errorf("%d duplicate mismatches", st.DuplicateMismatches)
			}
			if n := traceTableLen(c); n != 0 {
				t.Errorf("%d traces left in the table after the sweep", n)
			}
		})
	}
}

// TestDistributedWorkerKilledMidSweep models a worker that leases a batch
// and dies after one job: the server cancels its context once it has
// answered the worker's first result post. Its abandoned leases expire and
// are re-issued (to the surviving worker or the local fallback), and the
// table is still byte-identical. The dying worker's loop must return on its
// own, before the healthy worker is cancelled, and the coordinator must
// list it with exactly the one completion it posted before the kill: a
// worker that outlived its kill would complete more.
func TestDistributedWorkerKilledMidSweep(t *testing.T) {
	want := referenceTable(t, "fig12a")
	jobs := int64(len(harness.Jobs("fig12a")))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dyingCtx, kill := context.WithCancel(ctx)
	srv, c := distServerWrapped(t, CoordinatorConfig{
		LeaseTTL:    150 * time.Millisecond,
		ClaimBudget: 10 * time.Second,
	}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			if r.URL.Path == "/v1/jobs/result" && r.URL.Query().Get("worker") == "dying" {
				kill()
			}
		})
	})
	dying := startWorker(dyingCtx, srv.URL, "dying", memo.InMemory())
	healthy := startWorker(ctx, srv.URL, "healthy", memo.InMemory())
	waitLive(t, srv, 2)

	got := getTable(t, srv, "fig12a")
	select {
	case <-dying:
	case <-time.After(5 * time.Second):
		t.Error("the dying worker's loop did not return within 5s of its first result post")
	}
	cancel()
	<-dying
	<-healthy
	if !bytes.Equal(got, want) {
		t.Error("table with a killed worker differs from local run")
	}
	st := c.Stats()
	if st.RemoteCompleted+st.LocalRuns != jobs {
		t.Errorf("remote=%d + local=%d != %d jobs", st.RemoteCompleted, st.LocalRuns, jobs)
	}
	if st.DuplicateMismatches != 0 {
		t.Errorf("%d duplicate mismatches", st.DuplicateMismatches)
	}
	resp, body := get(t, srv.URL+"/v1/jobs/status")
	var out struct {
		Workers []WorkerStatus `json:"workers"`
	}
	if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d %v", resp.StatusCode, err)
	}
	var completed int64 = -1
	for _, ws := range out.Workers {
		if ws.ID == "dying" {
			completed = ws.Completed
		}
	}
	if completed != 1 {
		t.Errorf("the dying worker completed %d jobs, want 1 (workers %+v)", completed, out.Workers)
	}
}

// TestWorkerIDEscaped runs fig12a through one worker whose ID holds a
// character that means something in a query string. Every result post must
// reach the coordinator whole: each job completes remotely as the
// simulation it was, and the status lists one worker, under the exact ID.
func TestWorkerIDEscaped(t *testing.T) {
	jobs := int64(len(harness.Jobs("fig12a")))
	for _, tc := range []struct{ name, id string }{
		{"space", "w 1"},
		{"ampersand", "w&cached=1"},
		{"hash", "w#1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, c := distServer(t, CoordinatorConfig{
				LeaseTTL:    10 * time.Second,
				ClaimBudget: 10 * time.Second,
			})
			ctx, cancel := context.WithCancel(context.Background())
			done := startWorker(ctx, srv.URL, tc.id, memo.InMemory())
			waitLive(t, srv, 1)
			getTable(t, srv, "fig12a")
			cancel()
			<-done
			st := c.Stats()
			if st.RemoteCompleted != jobs || st.LocalRuns != 0 || st.RemoteCacheHits != 0 {
				t.Errorf("remote=%d local=%d remote_cache_hits=%d, want %d/0/0",
					st.RemoteCompleted, st.LocalRuns, st.RemoteCacheHits, jobs)
			}
			resp, body := get(t, srv.URL+"/v1/jobs/status")
			var out struct {
				Workers []WorkerStatus `json:"workers"`
			}
			if err := json.Unmarshal(body, &out); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("status: %d %v", resp.StatusCode, err)
			}
			if len(out.Workers) != 1 || out.Workers[0].ID != tc.id || out.Workers[0].Completed != jobs {
				t.Errorf("workers %+v, want one, %q, with %d completed", out.Workers, tc.id, jobs)
			}
		})
	}
}

// TestDistributedLeaseExpiry forces the worst worker: it leases everything
// and never posts a result. Every lease expires, the jobs fall back to local
// execution, and the table is still byte-identical.
func TestDistributedLeaseExpiry(t *testing.T) {
	want := referenceTable(t, "fig12a")
	srv, c := distServer(t, CoordinatorConfig{
		LeaseTTL:    100 * time.Millisecond,
		ClaimBudget: time.Second,
	})

	// Register the black hole as a live worker before the sweep publishes.
	lease := func(wait int64) int {
		body, _ := json.Marshal(leaseRequest{Worker: "blackhole", Max: 16, WaitMS: wait})
		resp, err := http.Post(srv.URL+"/v1/jobs/lease", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Leases []leaseWire `json:"leases"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return len(out.Leases)
	}
	lease(0)

	tableCh := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/v1/run?id=fig12a")
		if err != nil {
			tableCh <- nil
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		tableCh <- buf.Bytes()
	}()

	// Swallow at least one lease, then go silent forever.
	grabbed := 0
	for deadline := time.Now().Add(5 * time.Second); grabbed == 0 && time.Now().Before(deadline); {
		grabbed = lease(500)
	}
	if grabbed == 0 {
		t.Fatal("black-hole worker never obtained a lease")
	}

	got := <-tableCh
	if !bytes.Equal(got, want) {
		t.Error("table after lease expiry differs from local run")
	}
	st := c.Stats()
	if st.LeaseExpired == 0 {
		t.Error("no lease expired despite a black-hole worker")
	}
	if st.LocalRuns == 0 {
		t.Error("no local fallback runs despite a black-hole worker")
	}
	if st.DuplicateMismatches != 0 {
		t.Errorf("%d duplicate mismatches", st.DuplicateMismatches)
	}
}

// TestWarmWorkerCacheSkipsSimulation is the acceptance check for worker-side
// memoization: against a COLD coordinator, a worker that has seen the sweep
// before answers every job from its local cache — the warm distributed sweep
// re-simulates nothing, visible in the remote_cache_hits counter.
func TestWarmWorkerCacheSkipsSimulation(t *testing.T) {
	jobs := int64(len(harness.Jobs("fig12a")))
	workerStore := memo.InMemory() // survives across coordinator restarts
	var first []byte
	for run := 0; run < 2; run++ {
		srv, c := distServer(t, CoordinatorConfig{
			LeaseTTL:    10 * time.Second,
			ClaimBudget: 10 * time.Second,
		})
		ctx, cancel := context.WithCancel(context.Background())
		done := startWorker(ctx, srv.URL, "w0", workerStore)
		waitLive(t, srv, 1)

		got := getTable(t, srv, "fig12a")
		cancel()
		<-done
		st := c.Stats()
		switch run {
		case 0:
			first = got
			if st.RemoteSimulated != jobs {
				t.Errorf("cold run: remote_simulated=%d, want %d", st.RemoteSimulated, jobs)
			}
		case 1:
			if !bytes.Equal(got, first) {
				t.Error("warm distributed table differs from cold one")
			}
			if st.RemoteCacheHits != jobs || st.RemoteSimulated != 0 {
				t.Errorf("warm run: remote_cache_hits=%d remote_simulated=%d, want %d/0",
					st.RemoteCacheHits, st.RemoteSimulated, jobs)
			}
			if st.LocalRuns != 0 {
				t.Errorf("warm run: %d local runs, want 0", st.LocalRuns)
			}
		}
	}
}

// TestWorkerPostsStoredBytes runs fig12a through one worker three times,
// each against a cold coordinator cache, so every job is leased each time.
// The worker reads its store once per lease: all misses on the cold run,
// all hits after, nothing else counted. Before the warm run, every entry in
// the worker's store is rewritten as indented JSON, which decodes to the
// same result in other bytes: each warm result frame must carry its entry
// byte for byte, and each job count as a remote cache hit. Before the last
// run, one job's entry becomes a payload that does not decode. The worker
// posts it in a valid frame, and the coordinator must refuse it as 1
// corrupt result, take the lease back and run the job itself. The refusal
// makes the worker drop that entry, so a second poisoned run counts no
// corrupt result, failed lease or local run: the worker's store misses the
// job once, and the worker simulates and stores it again. Every table must
// match a local run.
func TestWorkerPostsStoredBytes(t *testing.T) {
	want := referenceTable(t, "fig12a")
	jobs := harness.Jobs("fig12a")
	n := int64(len(jobs))
	var coord atomic.Pointer[Coordinator]
	var mu sync.Mutex
	posts := make(map[string][][]byte) // result frames by job hash
	srv, c := distServerWrapped(t, CoordinatorConfig{
		LeaseTTL:    10 * time.Second,
		ClaimBudget: 10 * time.Second,
	}, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/jobs/result":
				body, err := io.ReadAll(r.Body)
				if err != nil {
					t.Error(err)
				}
				mu.Lock()
				posts[r.URL.Query().Get("hash")] = append(posts[r.URL.Query().Get("hash")], body)
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
			case "/v1/jobs/lease":
				// A refused job goes back on the board, where this worker
				// could lease it again and post the same entry before the
				// coordinator claims it: polls wait for that claim.
				deadline := time.Now().Add(5 * time.Second)
				for board := coord.Load(); board != nil && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if st := board.Stats(); st.LocalRuns >= st.CorruptResults {
						break
					}
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	coord.Store(c)
	workerStore := memo.InMemory()
	ctx, cancel := context.WithCancel(context.Background())
	done := startWorker(ctx, srv.URL, "w0", workerStore)
	defer func() { cancel(); <-done }()
	waitLive(t, srv, 1)

	// sweep runs fig12a against a cold coordinator cache and returns what
	// the worker's store and the board counted, and the result posts.
	sweep := func(name string) (memo.Stats, DistStats, map[string][][]byte) {
		t.Helper()
		mu.Lock()
		posts = make(map[string][][]byte)
		mu.Unlock()
		ws0, b0 := workerStore.Stats(), c.Stats()
		harness.SetStore(memo.InMemory()) // distServer's cleanup restores the original
		if got := getTable(t, srv, "fig12a"); !bytes.Equal(got, want) {
			t.Errorf("%s: table differs from local run", name)
		}
		ws, b := workerStore.Stats(), c.Stats()
		mu.Lock()
		defer mu.Unlock()
		return memo.Stats{
				Hits:           ws.Hits - ws0.Hits,
				Misses:         ws.Misses - ws0.Misses,
				PutEntries:     ws.PutEntries - ws0.PutEntries,
				CorruptEntries: ws.CorruptEntries - ws0.CorruptEntries,
			}, DistStats{
				RemoteCompleted: b.RemoteCompleted - b0.RemoteCompleted,
				RemoteCacheHits: b.RemoteCacheHits - b0.RemoteCacheHits,
				LocalRuns:       b.LocalRuns - b0.LocalRuns,
				FailedLeases:    b.FailedLeases - b0.FailedLeases,
				CorruptResults:  b.CorruptResults - b0.CorruptResults,
			}, posts
	}
	keys := make([]memo.Hash, len(jobs))
	for i, j := range jobs {
		h, err := j.Hash()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = h
	}

	ws, b, _ := sweep("cold")
	if ws != (memo.Stats{Misses: n, PutEntries: n}) {
		t.Errorf("cold: worker store counted %+v, want %d misses and %d puts only", ws, n, n)
	}
	if b.RemoteCompleted != n || b.RemoteCacheHits != 0 || b.LocalRuns != 0 {
		t.Errorf("cold: remote=%d remote_cache_hits=%d local=%d, want %d/0/0", b.RemoteCompleted, b.RemoteCacheHits, b.LocalRuns, n)
	}

	entries := make(map[string][]byte, len(keys))
	for _, h := range keys {
		payload, ok := workerStore.Get(h)
		if !ok {
			t.Fatalf("job %s is not in the worker's store after the cold run", h.Hex()[:12])
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, payload, "", "  "); err != nil {
			t.Fatal(err)
		}
		entries[h.Hex()] = indented.Bytes()
		workerStore.Put(h, indented.Bytes())
	}
	ws, b, frames := sweep("warm")
	if ws != (memo.Stats{Hits: n}) {
		t.Errorf("warm: worker store counted %+v, want %d hits only", ws, n)
	}
	if b.RemoteCompleted != n || b.RemoteCacheHits != n || b.LocalRuns != 0 || b.CorruptResults != 0 {
		t.Errorf("warm: remote=%d remote_cache_hits=%d local=%d corrupt=%d, want %d/%d/0/0",
			b.RemoteCompleted, b.RemoteCacheHits, b.LocalRuns, b.CorruptResults, n, n)
	}
	if len(frames) != len(entries) {
		t.Errorf("warm: result posts for %d jobs, want %d", len(frames), len(entries))
	}
	for hx, fs := range frames {
		h, err := parseHash(hx)
		if err != nil {
			t.Fatal(err)
		}
		if len(fs) != 1 || !bytes.Equal(fs[0], memo.EncodeFrame(h, entries[hx])) {
			t.Errorf("warm: job %.12s: %d result posts, the first not its stored entry in a frame", hx, len(fs))
		}
	}

	poisoned := keys[len(keys)/2]
	workerStore.Put(poisoned, []byte("not a result"))
	ws, b, frames = sweep("poisoned")
	if ws != (memo.Stats{Hits: n}) {
		t.Errorf("poisoned: worker store counted %+v, want %d hits only", ws, n)
	}
	if b.CorruptResults != 1 || b.FailedLeases != 1 || b.LocalRuns != 1 || b.RemoteCompleted != n-1 {
		t.Errorf("poisoned: corrupt=%d failed_leases=%d local=%d remote=%d, want 1/1/1/%d",
			b.CorruptResults, b.FailedLeases, b.LocalRuns, b.RemoteCompleted, n-1)
	}
	if fs := frames[poisoned.Hex()]; len(fs) != 1 || !bytes.Equal(fs[0], memo.EncodeFrame(poisoned, []byte("not a result"))) {
		t.Errorf("poisoned: %d result posts for the poisoned job, want 1 carrying its entry", len(fs))
	}

	ws, b, _ = sweep("after refusal")
	if ws != (memo.Stats{Hits: n - 1, Misses: 1, PutEntries: 1}) {
		t.Errorf("after refusal: worker store counted %+v, want %d hits, 1 miss and 1 put", ws, n-1)
	}
	if b.CorruptResults != 0 || b.FailedLeases != 0 || b.LocalRuns != 0 || b.RemoteCompleted != n {
		t.Errorf("after refusal: corrupt=%d failed_leases=%d local=%d remote=%d, want 0/0/0/%d",
			b.CorruptResults, b.FailedLeases, b.LocalRuns, b.RemoteCompleted, n)
	}
	if st := c.Stats(); st.DuplicateMismatches != 0 {
		t.Errorf("%d duplicate mismatches", st.DuplicateMismatches)
	}
}

// TestPoisonJobPanicsOnCaller sends a job that hashes and encodes but
// panics when it runs (a numasim placement no model knows) through a
// coordinator with one worker. The worker returns the lease and keeps
// polling; the coordinator runs the job itself, and RunJobs raises the
// numasim error again on its caller. The job then leaves the board, and a
// following fig12a completes every job remotely with a byte-identical
// table.
func TestPoisonJobPanicsOnCaller(t *testing.T) {
	want := referenceTable(t, "fig12a")
	srv, c := distServer(t, CoordinatorConfig{LeaseTTL: 10 * time.Second, ClaimBudget: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	done := startWorker(ctx, srv.URL, "w0", memo.InMemory())
	defer func() { cancel(); <-done }()
	waitLive(t, srv, 1)

	moon := *harness.Jobs("fig5")[0].Numa
	moon.Placement = "moon"
	raised := func() (p any) {
		defer func() { p = recover() }()
		harness.DefaultRunner().RunJobs([]harness.Job{{Numa: &moon}})
		return nil
	}()
	if err, ok := raised.(error); !ok || !strings.Contains(err.Error(), `numasim: unknown placement "moon"`) {
		t.Fatalf("RunJobs raised %v, want the numasim error", raised)
	}
	select {
	case <-done:
		t.Fatal("the worker loop exited")
	default:
	}
	st := c.Stats()
	if st.Inflight != 0 || st.FailedLeases < 1 {
		t.Errorf("inflight=%d failed_leases=%d, want 0 and at least 1", st.Inflight, st.FailedLeases)
	}

	if got := getTable(t, srv, "fig12a"); !bytes.Equal(got, want) {
		t.Error("fig12a after the poison job differs from a local run")
	}
	after := c.Stats()
	if remote := after.RemoteCompleted - st.RemoteCompleted; remote != int64(len(harness.Jobs("fig12a"))) || after.LocalRuns != st.LocalRuns {
		t.Errorf("fig12a: %d jobs remote and %d local, want all %d remote",
			remote, after.LocalRuns-st.LocalRuns, len(harness.Jobs("fig12a")))
	}
}

// TestSingleflightSharedEntries proves two concurrent sweeps needing the
// same jobs publish each job once: the second sweep shares the first's board
// entries, each job executes exactly once, and both sweeps get equal
// results.
func TestSingleflightSharedEntries(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{ClaimBudget: time.Millisecond})
	jobs := harness.Jobs("ablation-migration")
	hashes := make([]memo.Hash, len(jobs))
	for i, j := range jobs {
		h, err := j.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}

	gate := make(chan struct{})
	var execs atomic.Int64
	runLocal := func(k int) harness.JobResult {
		<-gate
		execs.Add(1)
		return harness.JobResult{}
	}

	results := make([][]harness.JobResult, 2)
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[s] = c.RunMissing(jobs, hashes, 1, runLocal)
		}()
	}
	// Hold execution until the second sweep has shared every entry, so the
	// dedup is observable rather than a race.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().SharedJobs < int64(len(jobs)); {
		if !time.Now().Before(deadline) {
			t.Fatal("second sweep never shared the first sweep's entries")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := execs.Load(); got != int64(len(jobs)) {
		t.Errorf("%d executions for %d jobs shared by 2 sweeps", got, len(jobs))
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("concurrent sweeps got different results")
	}
	if st := c.Stats(); st.Inflight != 0 {
		t.Errorf("%d entries left on the board after both sweeps released", st.Inflight)
	}
}

// TestSharedPanicRaisedInEverySweep: two concurrent sweeps share one entry
// whose local run panics. Each raises the panic on its own goroutine, and
// the entry leaves the board.
func TestSharedPanicRaisedInEverySweep(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{ClaimBudget: time.Millisecond})
	jobs := harness.Jobs("ablation-migration")[:1]
	h, err := jobs[0].Hash()
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	runLocal := func(int) harness.JobResult {
		<-gate
		panic("poisoned run")
	}
	raised := make([]any, 2)
	var wg sync.WaitGroup
	for s := range raised {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { raised[s] = recover() }()
			c.RunMissing(jobs, []memo.Hash{h}, 1, runLocal)
		}()
	}
	// Hold the run until the second sweep has shared the entry.
	for deadline := time.Now().Add(5 * time.Second); c.Stats().SharedJobs < 1; {
		if !time.Now().Before(deadline) {
			t.Fatal("second sweep never shared the first sweep's entry")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	for s, p := range raised {
		if p != "poisoned run" {
			t.Errorf("sweep %d raised %v, want the run's panic", s, p)
		}
	}
	if st := c.Stats(); st.Inflight != 0 || st.LocalRuns != 1 {
		t.Errorf("inflight=%d local_runs=%d, want 0 and 1", st.Inflight, st.LocalRuns)
	}
}

// TestLeaseEndpointBoundsBody: a valid lease request padded past 1 MiB is
// answered 413, and the worker it names never registers.
func TestLeaseEndpointBoundsBody(t *testing.T) {
	srv, c := distServer(t, CoordinatorConfig{})
	code, msg := postPadded(t, srv.URL+"/v1/jobs/lease", `{"worker":"padded","max":1}`)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds") {
		t.Errorf("padded lease body: %d %q, want 413 naming the bound", code, msg)
	}
	if n := c.Stats().LiveWorkers; n != 0 {
		t.Errorf("%d workers registered from a rejected lease request", n)
	}
}

// TestResultPostRobustness drives the result endpoint with every corruption
// the wire can produce — truncation, bit flips, wrong-key frames, undecodable
// payloads, trailing garbage — and checks each is rejected without completing
// the entry, then that valid/duplicate/mismatched/late posts resolve with
// first-valid-wins semantics.
func TestResultPostRobustness(t *testing.T) {
	srv, c := distServer(t, CoordinatorConfig{
		LeaseTTL:    10 * time.Second,
		ClaimBudget: 10 * time.Second,
	})
	job := harness.Jobs("fig12a")[0]
	h, err := job.Hash()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := harness.EncodeJob(job)
	if err != nil {
		t.Fatal(err)
	}
	c.enqueue(h, wire, nil)

	post := func(hash string, body []byte) (int, string) {
		t.Helper()
		url := srv.URL + "/v1/jobs/result?hash=" + hash + "&lease=1&worker=t"
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out.Status
	}

	payload, err := harness.EncodeJobResult(harness.JobResult{})
	if err != nil {
		t.Fatal(err)
	}
	good := memo.EncodeFrame(h, payload)

	var otherKey memo.Hash
	otherKey[0] = 1
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	corrupt := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"truncated", good[:len(good)-3]},
		{"bit flip", flipped},
		{"trailing garbage", append(bytes.Clone(good), 0xFF)},
		{"wrong key frame", memo.EncodeFrame(otherKey, payload)},
		{"undecodable payload", memo.EncodeFrame(h, []byte("{not json"))},
	}
	for _, tc := range corrupt {
		code, _ := post(h.Hex(), tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if st := c.Stats(); st.CorruptResults != int64(len(corrupt)) {
		t.Errorf("corrupt_results=%d, want %d", st.CorruptResults, len(corrupt))
	}
	if st := c.Stats(); st.RemoteCompleted != 0 {
		t.Fatalf("a corrupt post completed the entry (remote_completed=%d)", st.RemoteCompleted)
	}

	if code, status := post(h.Hex(), good); code != http.StatusOK || status != "stored" {
		t.Fatalf("valid post: %d %q, want 200 stored", code, status)
	}
	if code, status := post(h.Hex(), good); code != http.StatusOK || status != "duplicate" {
		t.Errorf("byte-identical duplicate: %d %q, want 200 duplicate", code, status)
	}
	// "{}" decodes to the same zero JobResult but its BYTES differ from the
	// canonical encoding — exactly the shape of a corrupted-but-well-formed
	// duplicate the mismatch counter exists to catch.
	otherPayload := []byte("{}")
	if code, status := post(h.Hex(), memo.EncodeFrame(h, otherPayload)); code != http.StatusOK || status != "mismatch" {
		t.Errorf("differing duplicate: %d %q, want 200 mismatch", code, status)
	}
	if st := c.Stats(); st.DuplicateResults != 2 || st.DuplicateMismatches != 1 {
		t.Errorf("duplicates=%d mismatches=%d, want 2/1", st.DuplicateResults, st.DuplicateMismatches)
	}

	if code, status := post(otherKey.Hex(), memo.EncodeFrame(otherKey, payload)); code != http.StatusGone || status != "late" {
		t.Errorf("unknown-hash post: %d %q, want 410 late", code, status)
	}
	if code, _ := post("zz", good); code != http.StatusBadRequest {
		t.Errorf("malformed hash: status %d, want 400", code)
	}
}
