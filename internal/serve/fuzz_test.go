package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"pifsrec/internal/engine"
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

// FuzzSimulateRequest throws arbitrary bodies at the /v1/simulate decoding
// path: decodeRequest, then ConfigSpec.config for each of at most
// maxSimulateConfigs configs (the handler refuses longer lists before
// building any). Each step must end in an error (400 or 413 from the
// decoder) or a config within ConfigSpec's documented bounds, never a
// panic. The simulations themselves are not run.
func FuzzSimulateRequest(f *testing.F) {
	f.Add([]byte(`{"configs":[{}]}`))
	f.Add([]byte(`{"configs":[{"scheme":"pond","model":"RMC1","scale":4096,"trace":"uniform","batches":1,"devices":2,"switches":1,"hosts":1,"seed":3}]}`))
	f.Add([]byte(`{"configs":[{"devices":65},{"hosts":-1},{"batches":64,"switches":32}]}`))
	f.Add([]byte(`{"configs":[{"switches":33},{"scale":-1},{"scale":9223372036854775807}]}`))
	f.Add([]byte(`{"configs":[{"scheme":"nope"},{"model":"RMC9"},{"trace":"bogus"}]}`))
	f.Add([]byte(`{"configs":[{"local_fraction":-3,"buffer_bytes":-1}]}`))
	f.Add([]byte(`{"configs":[{"devices":1e400}]}`))
	f.Add([]byte(`{"configs":`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body))
		var sr simulateRequest
		if !decodeRequest(rec, req, &sr, "decoding request") {
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("decode failure answered %d, want 400 or 413", rec.Code)
			}
			return
		}
		if len(sr.Configs) > maxSimulateConfigs {
			return
		}
		for i, cs := range sr.Configs {
			cfg, err := cs.config()
			if err != nil {
				continue
			}
			switch {
			case cfg.Devices < 0 || cfg.Devices > maxSpecCount,
				cfg.Hosts < 0 || cfg.Hosts > maxSpecCount,
				cfg.Switches < 0 || cfg.Switches > maxSpecSwitches:
				t.Fatalf("config %d: counts outside the bounds: devices %d, hosts %d, switches %d",
					i, cfg.Devices, cfg.Hosts, cfg.Switches)
			case !slices.Contains(engine.Schemes(), cfg.Scheme):
				t.Fatalf("config %d: unknown scheme %q accepted", i, cfg.Scheme)
			case cfg.Model.Validate() != nil:
				t.Fatalf("config %d: invalid model accepted: %v", i, cfg.Model.Validate())
			case cfg.Trace == nil || len(cfg.Trace.Bags) == 0 ||
				len(cfg.Trace.Bags) > maxSpecCount*4*cfg.Model.Tables:
				t.Fatalf("config %d: trace missing or outside the batch bound", i)
			case cfg.Trace.Tables != cfg.Model.Tables || cfg.Trace.RowsPerTable != cfg.Model.EmbRows:
				t.Fatalf("config %d: trace shape %dx%d does not match the model's %dx%d", i,
					cfg.Trace.Tables, cfg.Trace.RowsPerTable, cfg.Model.Tables, cfg.Model.EmbRows)
			case cfg.Seed == 0:
				t.Fatalf("config %d: zero seed", i)
			}
		}
	})
}

// FuzzLeaseRequest throws arbitrary bodies at the lease endpoint of a board
// holding 0 to 39 pending jobs. The request carries a 20 ms deadline, so a
// fuzzed wait_ms cannot stall the fuzzer: with nothing to lease, the
// long-poll ends with the request. The answer must be 200 with at most
// maxLeaseBatch leases (at least one when a job was pending), or 400 or
// 413.
func FuzzLeaseRequest(f *testing.F) {
	f.Add([]byte(`{"worker":"w1","max":4,"wait_ms":0}`), uint8(3))
	f.Add([]byte(`{"worker":"w1","max":400,"wait_ms":100000000}`), uint8(39))
	f.Add([]byte(`{"max":-5,"wait_ms":-1}`), uint8(0))
	f.Add([]byte(`{"wait_ms":9223372036854775807}`), uint8(0))
	f.Add([]byte(`{"wait_ms":50}`), uint8(0))
	f.Add([]byte(`{"worker":`), uint8(2))
	f.Add([]byte(`[]`), uint8(1))
	f.Fuzz(func(t *testing.T, body []byte, jobs uint8) {
		c := NewCoordinator(CoordinatorConfig{})
		pending := int(jobs % 40)
		for i := 0; i < pending; i++ {
			var h memo.Hash
			h[0], h[1] = byte(i), 0xA5
			c.enqueue(h, []byte("wire"), nil)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest("POST", "/v1/jobs/lease", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		c.handleLease(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var resp struct {
				Leases []leaseWire `json:"leases"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 with an undecodable body: %v", err)
			}
			if n := len(resp.Leases); n > maxLeaseBatch || n > pending {
				t.Fatalf("granted %d leases from %d pending jobs, limit %d", n, pending, maxLeaseBatch)
			}
			if pending > 0 && len(resp.Leases) == 0 {
				t.Fatalf("granted no lease with %d jobs pending", pending)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("lease request answered %d, want 200, 400 or 413", rec.Code)
		}
	})
}
