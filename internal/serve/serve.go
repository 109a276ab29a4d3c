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
//
// /v1/run responses carry X-Memo-Hits / X-Memo-Misses headers — the cache's
// hit and miss deltas while the request ran — and, with a coordinator
// attached, X-Jobs-Remote / X-Jobs-Local / X-Jobs-Shared: how many of the
// sweep's cache misses were completed by workers, by local fallback, or
// shared with a concurrent identical request (all approximate under
// concurrent requests — the counters are global).
//
// The HTTP layer compresses responses for clients that accept gzip and
// accepts gzip-compressed request bodies, so multi-MB simulate sweeps and
// result posts don't dominate on the wire.
package serve

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/engine"
	"pifsrec/internal/harness"
	"pifsrec/internal/trace"
)

// ConfigSpec is the wire form of one raw simulation config: the same knobs
// the pifssim CLI exposes, JSON-encoded. Zero values take the CLI's
// defaults (RMC4 at scale 64, Meta trace, 2 batches, seed 1; device/switch/
// host counts fall to the engine's own defaults).
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
	var m dlrm.ModelConfig
	found := false
	for _, cand := range dlrm.Models() {
		if cand.Name == name {
			m = cand.Scaled(scale)
			found = true
		}
	}
	if !found {
		names := make([]string, 0, 4)
		for _, cand := range dlrm.Models() {
			names = append(names, cand.Name)
		}
		return engine.Config{}, fmt.Errorf("unknown model %q (have %v)", name, names)
	}

	kind := trace.Kind(cs.Trace)
	if kind == "" {
		kind = trace.MetaLike
	}
	batches := cs.Batches
	if batches == 0 {
		batches = 2
	}
	if batches < 1 {
		return engine.Config{}, fmt.Errorf("batches %d must be at least 1", batches)
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
	// the per-request X-Jobs-* headers. Nil answers those endpoints 503;
	// sweeps then always run on the local pool.
	Coordinator *Coordinator
	// Log receives one line per request (method, path, status, duration,
	// cache and job-board deltas); nil disables request logging.
	Log *log.Logger
}

// NewHandler returns the sweep-service handler with no coordinator and no
// request logging. It holds no state of its own — the result cache
// (harness.SetStore) and runner width are process configuration.
func NewHandler() http.Handler { return Handler(Options{}) }

// Handler returns the sweep-service handler for the given options.
func Handler(o Options) http.Handler {
	c := o.Coordinator
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/experiments", handleExperiments)
	mux.HandleFunc("/v1/run", withDistHeaders(c, handleRun))
	mux.HandleFunc("/v1/simulate", handleSimulate)
	mux.HandleFunc("/v1/stats", handleStats)
	mux.HandleFunc("/v1/jobs/lease", jobEndpoint(c, (*Coordinator).handleLease))
	mux.HandleFunc("/v1/jobs/result", jobEndpoint(c, (*Coordinator).handleResult))
	mux.HandleFunc("/v1/jobs/fail", jobEndpoint(c, (*Coordinator).handleFail))
	mux.HandleFunc("/v1/jobs/status", jobEndpoint(c, (*Coordinator).handleStatus))
	var h http.Handler = withGzip(mux)
	if o.Log != nil {
		h = withRequestLog(o.Log, c, h)
	}
	return h
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

// bufferedResponse holds a handler's full output so headers computed AFTER
// the handler ran (the job-board deltas) can still be set before anything
// reaches the wire. Sweep responses are tables and counter JSON — a few KB.
type bufferedResponse struct {
	http.ResponseWriter
	status int
	body   []byte
}

func (b *bufferedResponse) WriteHeader(code int) { b.status = code }
func (b *bufferedResponse) Write(p []byte) (int, error) {
	b.body = append(b.body, p...)
	return len(p), nil
}

// withDistHeaders adds the job-board deltas a sweep request caused to its
// response headers, next to the memo hit/miss deltas the handlers set.
func withDistHeaders(c *Coordinator, h http.HandlerFunc) http.HandlerFunc {
	if c == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		before := c.Stats()
		buf := &bufferedResponse{ResponseWriter: w, status: http.StatusOK}
		h(buf, r)
		after := c.Stats()
		hdr := w.Header()
		hdr.Set("X-Jobs-Remote", fmt.Sprint(after.RemoteCompleted-before.RemoteCompleted))
		hdr.Set("X-Jobs-Local", fmt.Sprint(after.LocalRuns-before.LocalRuns))
		hdr.Set("X-Jobs-Shared", fmt.Sprint(after.SharedJobs-before.SharedJobs))
		w.WriteHeader(buf.status)
		w.Write(buf.body)
	}
}

// gzipResponseWriter compresses the response body. The Content-Encoding
// header must be set before the status line goes out, so both WriteHeader
// and the first Write arm the compressor; Content-Length is dropped (the
// compressed size is unknown).
type gzipResponseWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
}

func (g *gzipResponseWriter) arm() {
	if g.gz == nil {
		g.Header().Set("Content-Encoding", "gzip")
		g.Header().Del("Content-Length")
		g.gz = gzip.NewWriter(g.ResponseWriter)
	}
}

func (g *gzipResponseWriter) WriteHeader(code int) {
	g.arm()
	g.ResponseWriter.WriteHeader(code)
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	g.arm()
	return g.gz.Write(p)
}

func (g *gzipResponseWriter) Close() error {
	if g.gz == nil {
		return nil
	}
	return g.gz.Close()
}

type gzipReadCloser struct {
	*gzip.Reader
	orig io.Closer
}

func (g gzipReadCloser) Close() error {
	g.Reader.Close()
	return g.orig.Close()
}

// withGzip decompresses gzip request bodies and compresses responses for
// clients that accept gzip (Go's default HTTP client does, transparently).
func withGzip(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Encoding") == "gzip" {
			gz, err := gzip.NewReader(r.Body)
			if err != nil {
				writeError(w, http.StatusBadRequest, "request body is not valid gzip: %v", err)
				return
			}
			r.Body = gzipReadCloser{Reader: gz, orig: r.Body}
			r.Header.Del("Content-Encoding")
		}
		if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
			gw := &gzipResponseWriter{ResponseWriter: w}
			defer gw.Close()
			h.ServeHTTP(gw, r)
			return
		}
		h.ServeHTTP(w, r)
	})
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

func handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id := r.URL.Query().Get("id")
	before := harness.CacheStats()
	table, err := harness.RunTable(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown experiment %q (have %v)", id, harness.IDs())
		return
	}
	after := harness.CacheStats()
	w.Header().Set("X-Memo-Hits", fmt.Sprint(after.Hits-before.Hits))
	w.Header().Set("X-Memo-Misses", fmt.Sprint(after.Misses-before.Misses))
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	table.Fprint(w)
}

func handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req struct {
		Configs []ConfigSpec `json:"configs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Configs) == 0 {
		writeError(w, http.StatusBadRequest, "no configs in request")
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
