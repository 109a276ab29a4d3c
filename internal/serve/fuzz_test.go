package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"
	"testing"

	"pifsrec/internal/harness"
	"pifsrec/internal/memo"
	"pifsrec/internal/trace"
)

// FuzzResultPost throws arbitrary bytes at the result endpoint and checks
// the only two legal outcomes: a body that survives the frame decoder AND
// the payload decoder completes the entry (200), anything else is rejected
// (400) with the entry untouched — no crash, no half-validated result on the
// board, nothing for RunJobs to later Put in the cache.
func FuzzResultPost(f *testing.F) {
	job := harness.Jobs("ablation-migration")[0]
	h, err := job.Hash()
	if err != nil {
		f.Fatal(err)
	}
	wire, err := harness.EncodeJob(job)
	if err != nil {
		f.Fatal(err)
	}
	payload, err := harness.EncodeJobResult(harness.JobResult{})
	if err != nil {
		f.Fatal(err)
	}
	good := memo.EncodeFrame(h, payload)

	f.Add(bytes.Clone(good))
	f.Add([]byte{})
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1])
	flip := bytes.Clone(good)
	flip[len(flip)/2] ^= 0x20
	f.Add(flip)
	f.Add(append(bytes.Clone(good), 0xDE, 0xAD))
	f.Add(memo.EncodeFrame(h, []byte("{not json")))
	var other memo.Hash
	other[31] = 7
	f.Add(memo.EncodeFrame(other, payload))

	f.Fuzz(func(t *testing.T, body []byte) {
		c := NewCoordinator(CoordinatorConfig{})
		c.enqueue(h, wire, nil)
		req := httptest.NewRequest("POST", "/v1/jobs/result?hash="+h.Hex()+"&lease=1&worker=fuzz", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		c.handleResult(rec, req)

		valid := false
		if p, ok := memo.DecodeFrame(body, h); ok {
			if _, derr := harness.DecodeJobResult(p); derr == nil {
				valid = true
			}
		}
		st := c.Stats()
		if valid {
			if rec.Code != 200 || st.RemoteCompleted != 1 {
				t.Fatalf("valid frame: status %d, remote_completed %d", rec.Code, st.RemoteCompleted)
			}
		} else {
			if rec.Code != 400 || st.RemoteCompleted != 0 || st.CorruptResults != 1 {
				t.Fatalf("corrupt frame: status %d, remote_completed %d, corrupt %d",
					rec.Code, st.RemoteCompleted, st.CorruptResults)
			}
		}
	})
}

// smallTraceJob is fig12a's first job on a trace of a few hundred bytes,
// generated from seed, so the fuzzer mutates (and minimizes) a small input.
func smallTraceJob(tb testing.TB, seed uint64) harness.Job {
	tb.Helper()
	cfg := *harness.Jobs("fig12a")[0].Engine
	tr, err := trace.Generate(trace.Spec{
		Kind:         trace.Uniform,
		Tables:       cfg.Model.Tables,
		RowsPerTable: cfg.Model.EmbRows,
		Batches:      1,
		BatchSize:    1,
		BagSize:      2,
		Seed:         seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Trace = tr
	return harness.Job{Engine: &cfg}
}

// FuzzTraceFetch serves arbitrary bytes as the trace a lease names, naming
// either the job's real trace or the served bytes' own SHA-256. The worker
// may use (and cache) the bytes only when their SHA-256 matches the name
// and they decode as PIFSTRC1, and may post a result only when the decoded
// trace is the job's own; in every other case it returns the lease.
func FuzzTraceFetch(f *testing.F) {
	job := smallTraceJob(f, 7)
	h, err := job.Hash()
	if err != nil {
		f.Fatal(err)
	}
	wire, err := harness.EncodeJob(job)
	if err != nil {
		f.Fatal(err)
	}
	real := encodeJobTrace(f, job)
	store := memo.InMemory() // shared, so the real job simulates once

	f.Add(bytes.Clone(real.raw), false)
	f.Add(bytes.Clone(real.raw), true)
	f.Add(real.raw[:len(real.raw)/2], false)
	f.Add(real.raw[:len(real.raw)/2], true)
	flip := bytes.Clone(real.raw)
	flip[len(flip)/2] ^= 0x08
	f.Add(flip, false)
	f.Add(flip, true)
	f.Add(append(bytes.Clone(real.raw), 0), true)
	f.Add([]byte{}, true)
	other := encodeJobTrace(f, smallTraceJob(f, 8)).raw // another valid trace
	f.Add(bytes.Clone(other), true)
	f.Add(bytes.Clone(other), false)

	f.Fuzz(func(t *testing.T, body []byte, nameBody bool) {
		name := real.hash
		if nameBody {
			name = sha256.Sum256(body)
		}
		var fails, results int
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/traces/", func(w http.ResponseWriter, r *http.Request) { w.Write(body) })
		mux.HandleFunc("/v1/jobs/fail", func(w http.ResponseWriter, r *http.Request) { fails++ })
		mux.HandleFunc("/v1/jobs/result", func(w http.ResponseWriter, r *http.Request) {
			results++
			w.Write([]byte(`{"status":"stored"}`))
		})
		w := newWorker(WorkerConfig{ID: "fuzz", Store: store, Runner: harness.NewRunner(1)})
		w.base = "http://coordinator"
		w.client = &http.Client{Transport: handlerTransport{mux}}
		w.runLease(context.Background(), leaseWire{Lease: 1, Hash: h.Hex(), Job: wire, Trace: name.Hex()})

		usable, own := false, false
		if tr, err := trace.Read(bytes.NewReader(body)); err == nil && sha256.Sum256(body) == name {
			usable = true
			th, err := tr.Hash()
			own = err == nil && memo.Hash(th) == real.hash
		}
		if _, cached := w.traces.byHash[name]; cached != usable {
			t.Fatalf("usable=%v but cached=%v", usable, cached)
		}
		if fails+results != 1 || (results == 1) != own {
			t.Fatalf("usable=%v own=%v: %d fail posts, %d result posts", usable, own, fails, results)
		}
	})
}
