package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
	prevDist := c.Install()
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
func startWorker(ctx context.Context, url, id string, store *memo.Store, maxJobs int) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		RunWorker(ctx, WorkerConfig{
			Coordinator: url,
			ID:          id,
			Store:       store,
			LeaseMax:    4,
			Poll:        50 * time.Millisecond,
			MaxJobs:     maxJobs,
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
				dones = append(dones, startWorker(ctx, srv.URL, fmt.Sprintf("w%d", i), memo.InMemory(), 0))
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
// and dies after one job: its abandoned leases expire and are re-issued (to
// the surviving worker or the local fallback), and the table is still
// byte-identical.
func TestDistributedWorkerKilledMidSweep(t *testing.T) {
	want := referenceTable(t, "fig12a")
	jobs := int64(len(harness.Jobs("fig12a")))
	srv, c := distServer(t, CoordinatorConfig{
		LeaseTTL:    150 * time.Millisecond,
		ClaimBudget: 10 * time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dying := startWorker(ctx, srv.URL, "dying", memo.InMemory(), 1)
	healthy := startWorker(ctx, srv.URL, "healthy", memo.InMemory(), 0)
	waitLive(t, srv, 2)

	got := getTable(t, srv, "fig12a")
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
		done := startWorker(ctx, srv.URL, "w0", workerStore, 0)
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
