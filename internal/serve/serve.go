// Package serve is the HTTP face of the long-lived sweep service behind
// pifssim -serve: a stateless handler that answers experiment sweeps through
// the harness's memoized runner and raw-config sweeps by running every
// posted config. Because every experiment job is content-addressed, a warm
// server answers repeated experiment sweeps from the result cache and
// re-simulates only configs it has never seen — the interactive "edit one
// config, re-run the sweep" loop costs one simulation, not a full re-run.
// Raw-config sweeps neither read nor fill the cache: each config runs on its
// own, so one that panics fails only its own slot.
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/experiments        experiment ids with per-sweep job counts
//	GET  /v1/run?id=fig13a      one experiment's table (text/plain; the exact
//	                            bytes pifsbench prints)
//	POST /v1/simulate           raw config sweep: {"configs": [...]} in,
//	                            results (engine counters) out, input order
//	GET  /v1/stats              cumulative result-cache counters
//	POST /v1/jobs/lease         worker pull: lease cache-miss jobs (dist.go)
//	POST /v1/jobs/result        worker push: CRC-framed result for a lease
//	POST /v1/jobs/fail          worker push: return a lease unrun
//	GET  /v1/jobs/status        job board + per-worker counters
//	GET  /v1/traces/{hash}      worker pull: the PIFSTRC1 bytes of a trace
//	                            a lease names (application/octet-stream)
//
// The JSON request bodies of /v1/simulate and /v1/jobs/lease are bounded at
// maxRequestBytes; a larger body is answered 413.
// /v1/simulate also answers 400 for more than maxSimulateConfigs configs, or
// a config whose sizes fall outside the ConfigSpec bounds.
//
// /v1/run responses carry X-Memo-Hits / X-Memo-Misses headers — the cache's
// hit and miss deltas while the request ran — and, with a coordinator
// attached, X-Jobs-Remote / X-Jobs-Local / X-Jobs-Shared: how many of the
// sweep's cache misses were completed by workers, by local fallback, or
// shared with a concurrent identical request (all approximate under
// concurrent requests — the counters are global).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/trace"
)

// Size bounds of a /v1/simulate request. A body well under maxRequestBytes
// could otherwise exhaust memory: every config retains its trace before any
// run, and a run allocates per device and per batch. The bounds cover every
// value the experiments and the CLI defaults use (fig13c reaches 32
// switches, devices and hosts).
const (
	maxSimulateConfigs = 64 // configs per request
	maxSpecCount       = 64 // devices, hosts and batches per config
	maxSpecSwitches    = 32 // switches per config
)

// ConfigSpec is the wire form of one raw simulation config: the same knobs
// the pifssim CLI exposes, JSON-encoded. Zero values take the CLI's
// defaults (RMC4 at scale 64, Meta trace, 2 batches, seed 1; device/switch/
// host counts fall to the engine's own defaults). Devices, hosts and batches
// must lie in [0, maxSpecCount], switches in [0, maxSpecSwitches].
type ConfigSpec struct {
	Scheme        string  `json:"scheme"`
	Model         string  `json:"model"`
	Scale         int64   `json:"scale"`
	Trace         string  `json:"trace"`
	Batches       int     `json:"batches"`
	Devices       int     `json:"devices"`
	Switches      int     `json:"switches"`
	Hosts         int     `json:"hosts"`
	BufferBytes   int     `json:"buffer_bytes"`
	LocalFraction float64 `json:"local_fraction"`
	Seed          uint64  `json:"seed"`
}

// config materializes the engine configuration a spec describes. Traces are
// regenerated per call; their content hash — not their allocation — is the
// cache identity, so a regenerated trace still hits.
func (cs ConfigSpec) config() (engine.Config, error) {
	for _, b := range []struct {
		name   string
		v, max int
	}{
		{"devices", cs.Devices, maxSpecCount},
		{"hosts", cs.Hosts, maxSpecCount},
		{"batches", cs.Batches, maxSpecCount},
		{"switches", cs.Switches, maxSpecSwitches},
	} {
		if b.v < 0 || b.v > b.max {
			return engine.Config{}, fmt.Errorf("%s %d outside [0, %d]", b.name, b.v, b.max)
		}
	}
	scheme := engine.Scheme(cs.Scheme)
	switch scheme {
	case engine.Pond, engine.PondPM, engine.BEACON, engine.RecNMP, engine.PIFSRec:
	case "":
		scheme = engine.PIFSRec
	default:
		return engine.Config{}, fmt.Errorf("unknown scheme %q (have %v)", cs.Scheme, engine.Schemes())
	}

	name := cs.Model
	if name == "" {
		name = "RMC4"
	}
	scale := cs.Scale
	if scale == 0 {
		scale = 64
	}
	if scale < 1 {
		return engine.Config{}, fmt.Errorf("scale %d must be at least 1", scale)
	}
	m, err := dlrm.ModelByName(name)
	if err != nil {
		return engine.Config{}, err
	}
	m = m.Scaled(scale)

	kind := trace.Kind(cs.Trace)
	if kind == "" {
		kind = trace.MetaLike
	}
	batches := cs.Batches
	if batches == 0 {
		batches = 2
	}
	tr, err := trace.Generate(trace.Spec{
		Kind:         kind,
		Tables:       m.Tables,
		RowsPerTable: m.EmbRows,
		Batches:      batches,
		BatchSize:    4,
		BagSize:      32,
		Seed:         7,
	})
	if err != nil {
		return engine.Config{}, err
	}

	seed := cs.Seed
	if seed == 0 {
		seed = 1
	}
	return engine.Config{
		Scheme:        scheme,
		Model:         m,
		Trace:         tr,
		Devices:       cs.Devices,
		Switches:      cs.Switches,
		Hosts:         cs.Hosts,
		BufferBytes:   cs.BufferBytes,
		LocalFraction: cs.LocalFraction,
		Seed:          seed,
	}, nil
}

// Options configures the sweep-service handler.
type Options struct {
	// Coordinator enables the distributed job endpoints (/v1/jobs/*) and
	// the per-request X-Jobs-* headers; sweeps use its board once the caller
	// calls harness.SetDistributor(c.RunMissing). Nil answers those
	// endpoints 503; sweeps then always run on the local pool.
	Coordinator *Coordinator
	// Log receives one line per request (method, path, status, duration,
	// cache and job-board deltas); nil disables request logging.
	Log *log.Logger
}

// Handler returns the sweep-service handler for the given options. It holds
// no state of its own beyond the coordinator — the result cache
// (harness.SetStore) and runner width are process configuration.
func Handler(o Options) http.Handler {
	c := o.Coordinator
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/experiments", handleExperiments)
	mux.HandleFunc("/v1/run", runHandler(c))
	mux.HandleFunc("/v1/simulate", handleSimulate)
	mux.HandleFunc("/v1/stats", handleStats)
	mux.HandleFunc("/v1/jobs/lease", jobEndpoint(c, (*Coordinator).handleLease))
	mux.HandleFunc("/v1/jobs/result", jobEndpoint(c, (*Coordinator).handleResult))
	mux.HandleFunc("/v1/jobs/fail", jobEndpoint(c, (*Coordinator).handleFail))
	mux.HandleFunc("/v1/jobs/status", jobEndpoint(c, (*Coordinator).handleStatus))
	mux.HandleFunc("/v1/traces/", jobEndpoint(c, (*Coordinator).handleTrace))
	if o.Log == nil {
		return mux
	}
	return withRequestLog(o.Log, c, mux)
}

// jobEndpoint answers a job-board route, or 503 when the service runs
// without a coordinator.
func jobEndpoint(c *Coordinator, fn func(*Coordinator, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if c == nil {
			writeError(w, http.StatusServiceUnavailable, "no coordinator: this service runs sweeps on its local pool only")
			return
		}
		fn(c, w, r)
	}
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// withRequestLog logs one line per request with the cache and job-board
// counter deltas it caused (approximate under concurrency — the counters
// are global). Lease long-polls are skipped: an idle fleet would flood the
// log with empty polls.
func withRequestLog(lg *log.Logger, c *Coordinator, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/lease" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		cacheBefore := harness.CacheStats()
		var distBefore DistStats
		if c != nil {
			distBefore = c.Stats()
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(rec, r)
		cacheAfter := harness.CacheStats()
		line := fmt.Sprintf("%s %s %d %s hits=+%d misses=+%d",
			r.Method, r.URL.RequestURI(), rec.status,
			time.Since(start).Round(time.Millisecond),
			cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses)
		if c != nil {
			distAfter := c.Stats()
			line += fmt.Sprintf(" remote=+%d local=+%d shared=+%d",
				distAfter.RemoteCompleted-distBefore.RemoteCompleted,
				distAfter.LocalRuns-distBefore.LocalRuns,
				distAfter.SharedJobs-distBefore.SharedJobs)
		}
		lg.Print(line)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxRequestBytes bounds a JSON request body: a simulate sweep or a lease
// request is a few hundred bytes per config, so 1 MiB is far past any
// legitimate one. Workers bound the lease responses they read by it too: a
// full 16-job lease of config-only job wires is about 10 KB.
const maxRequestBytes = 1 << 20

// decodeRequest decodes r's JSON body into v, reading at most
// maxRequestBytes. On failure it writes the error response — 413 for an
// oversized body, 400 for anything else, prefixed by what — and returns
// false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "%s: body exceeds %d bytes", what, tooLarge.Limit)
	} else {
		writeError(w, http.StatusBadRequest, "%s: %v", what, err)
	}
	return false
}

func handleExperiments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	type exp struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"` // first-phase job count; 0 = analytic table
	}
	out := make([]exp, 0, len(harness.IDs()))
	for _, id := range harness.IDs() {
		out = append(out, exp{ID: id, Jobs: len(harness.Jobs(id))})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// runHandler answers /v1/run. It sets the cache's hit and miss deltas and,
// with a coordinator c, the job-board deltas once the sweep has run, before
// the table's first byte goes out.
func runHandler(c *Coordinator) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "use GET")
			return
		}
		id := r.URL.Query().Get("id")
		before := harness.CacheStats()
		var distBefore DistStats
		if c != nil {
			distBefore = c.Stats()
		}
		table, err := harness.RunTable(id)
		if err != nil {
			writeError(w, http.StatusNotFound, "unknown experiment %q (have %v)", id, harness.IDs())
			return
		}
		after := harness.CacheStats()
		hdr := w.Header()
		hdr.Set("X-Memo-Hits", fmt.Sprint(after.Hits-before.Hits))
		hdr.Set("X-Memo-Misses", fmt.Sprint(after.Misses-before.Misses))
		if c != nil {
			distAfter := c.Stats()
			hdr.Set("X-Jobs-Remote", fmt.Sprint(distAfter.RemoteCompleted-distBefore.RemoteCompleted))
			hdr.Set("X-Jobs-Local", fmt.Sprint(distAfter.LocalRuns-distBefore.LocalRuns))
			hdr.Set("X-Jobs-Shared", fmt.Sprint(distAfter.SharedJobs-distBefore.SharedJobs))
		}
		hdr.Set("Content-Type", "text/plain; charset=utf-8")
		table.Fprint(w)
	}
}

// simulateRequest is the body of a /v1/simulate request.
type simulateRequest struct {
	Configs []ConfigSpec `json:"configs"`
}

func handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req simulateRequest
	if !decodeRequest(w, r, &req, "decoding request") {
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "no configs in request")
		return
	}
	if len(req.Configs) > maxSimulateConfigs {
		writeError(w, http.StatusBadRequest, "%d configs exceed the limit of %d per request",
			len(req.Configs), maxSimulateConfigs)
		return
	}
	cfgs := make([]engine.Config, len(req.Configs))
	for i, cs := range req.Configs {
		cfg, err := cs.config()
		if err != nil {
			writeError(w, http.StatusBadRequest, "config %d: %v", i, err)
			return
		}
		cfgs[i] = cfg
	}
	results, errs := harness.DefaultRunner().RunConfigsIsolated(cfgs)
	type slot struct {
		Result *engine.Result `json:"result,omitempty"`
		Error  string         `json:"error,omitempty"`
	}
	out := make([]slot, len(cfgs))
	for i := range cfgs {
		if errs[i] != nil {
			out[i] = slot{Error: errs[i].Error()}
		} else {
			res := results[i]
			out[i] = slot{Result: &res}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": out})
}

func handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, harness.CacheStats())
}
