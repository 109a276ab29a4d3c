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
// maxRequestBytes (after gzip decoding); a larger body is answered 413.
// /v1/simulate also answers 400 for more than maxSimulateConfigs configs, or
// a config whose sizes fall outside the ConfigSpec bounds.
//
// /v1/run responses carry X-Memo-Hits / X-Memo-Misses headers — the cache's
// hit and miss deltas while the request ran — and, with a coordinator
// attached, X-Jobs-Remote / X-Jobs-Local / X-Jobs-Shared: how many of the
// sweep's cache misses were completed by workers, by local fallback, or
// shared with a concurrent identical request (all approximate under
// concurrent requests — the counters are global).
//
// The HTTP layer accepts gzip-compressed request bodies and, for clients
// that accept gzip, compresses a response body of gzipThreshold (1 KiB) or
// more with a pooled compressor; a shorter body goes out as written. Workers
// compress their result posts by the same rule.
package serve

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
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
	mux.HandleFunc("/v1/traces/", jobEndpoint(c, (*Coordinator).handleTrace))
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

// gzipThreshold is the body size from which a response, or a worker's
// result post, is gzip-compressed. Shorter bodies (errors, empty lease
// polls, small result frames) cost more CPU to compress than they save.
const gzipThreshold = 1 << 10

// gzipWriters pools compressors: a gzip.Writer carries about 800 KB of
// deflate state, far more than the bodies it compresses here. getGzip
// Resets one onto its destination; put it back after Close.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

func getGzip(w io.Writer) *gzip.Writer {
	gz := gzipWriters.Get().(*gzip.Writer)
	gz.Reset(w)
	return gz
}

// gzipResponseWriter compresses a response body of gzipThreshold bytes or
// more. It holds back the status and the first bytes until it knows which
// case applies: once the body reaches the threshold it sets
// Content-Encoding, drops Content-Length (the compressed size is unknown)
// and streams through a pooled compressor; a shorter body goes out as
// written when Close runs.
type gzipResponseWriter struct {
	http.ResponseWriter
	status int
	head   []byte // body bytes held back while under the threshold
	gz     *gzip.Writer
}

func (g *gzipResponseWriter) WriteHeader(code int) {
	if g.status == 0 {
		g.status = code
	}
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if g.gz != nil {
		return g.gz.Write(p)
	}
	if len(g.head)+len(p) < gzipThreshold {
		g.head = append(g.head, p...)
		return len(p), nil
	}
	g.Header().Set("Content-Encoding", "gzip")
	g.Header().Del("Content-Length")
	g.sendHeader()
	g.gz = getGzip(g.ResponseWriter)
	if _, err := g.gz.Write(g.head); err != nil {
		return 0, err
	}
	g.head = nil
	return g.gz.Write(p)
}

func (g *gzipResponseWriter) sendHeader() {
	if g.status != 0 {
		g.ResponseWriter.WriteHeader(g.status)
	}
}

// Close sends a body shorter than the threshold as written, or ends the
// compressed stream and returns its compressor to the pool.
func (g *gzipResponseWriter) Close() error {
	if g.gz == nil {
		g.sendHeader()
		_, err := g.ResponseWriter.Write(g.head)
		return err
	}
	err := g.gz.Close()
	gzipWriters.Put(g.gz)
	g.gz = nil
	return err
}

type gzipReadCloser struct {
	*gzip.Reader
	orig io.Closer
}

func (g gzipReadCloser) Close() error {
	g.Reader.Close()
	return g.orig.Close()
}

// withGzip decompresses gzip request bodies and compresses responses of
// gzipThreshold bytes or more for clients that accept gzip (Go's default
// HTTP client does, transparently).
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
