package harness

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"

	"pifsrec/internal/engine"
	"pifsrec/internal/memo"
	"pifsrec/internal/numasim"
	"pifsrec/internal/report"
)

// Job is one memoizable unit of simulation work: exactly one engine
// configuration or one numasim evaluation, producing one JobResult. Every
// experiment decomposes into a declarative job list (see Jobs) plus a pure
// assembly function over the results, which is what lets the result cache
// skip any job whose content identity it has seen before.
type Job struct {
	// Engine runs one engine.Config; exactly one of Engine/Numa is set.
	Engine *engine.Config
	// Numa evaluates one numasim (model, platform, workload, placement).
	Numa *NumaJob
}

// NumaJob identifies one numasim evaluation.
type NumaJob struct {
	Model     numasim.Model
	Platform  numasim.Platform
	Workload  numasim.Workload
	Placement numasim.Placement
}

// JobResult is the result of one Job; the field matching the job's kind is
// populated, the other stays zero.
type JobResult struct {
	Engine engine.Result  `json:"engine"`
	Numa   numasim.Result `json:"numa"`
}

// resultSchema is a fingerprint of the JobResult type tree (field names,
// order, and kinds, recursively). It is folded into every job hash, so
// adding, removing, renaming, or retyping ANY result field automatically
// invalidates every cache entry — a stale entry can never decode into a
// differently-shaped result with silently zeroed fields.
var resultSchema = schemaOf(reflect.TypeOf(JobResult{}))

func schemaOf(t reflect.Type) string {
	var b strings.Builder
	describeType(&b, t, 0)
	return b.String()
}

func describeType(b *strings.Builder, t reflect.Type, depth int) {
	if depth > 8 {
		// Result types are shallow value trees; anything deeper is a bug in
		// the schema walk, not a legitimate result shape.
		panic("harness: result schema too deep")
	}
	switch t.Kind() {
	case reflect.Struct:
		fmt.Fprintf(b, "struct %s{", t.Name())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fmt.Fprintf(b, "%s ", f.Name)
			describeType(b, f.Type, depth+1)
			b.WriteByte(';')
		}
		b.WriteByte('}')
	case reflect.Slice, reflect.Array, reflect.Pointer:
		fmt.Fprintf(b, "%s of ", t.Kind())
		describeType(b, t.Elem(), depth+1)
	default:
		b.WriteString(t.Kind().String())
	}
}

// codeSalt is the code-version salt folded into every job hash. It tracks
// memo.CodeVersion; tests override it to prove a salt bump invalidates
// every entry.
var codeSalt = memo.CodeVersion

// keyPrefix is a Hasher that has folded a salt and the result schema, the
// first 1 KB of every job key; jobs clone it rather than fold it again.
type keyPrefix struct {
	salt string
	h    *memo.Hasher
}

// lastPrefix holds the prefix of the most recent salt: normally the only
// one, since only tests change codeSalt.
var lastPrefix atomic.Pointer[keyPrefix]

// prefixFor returns a fresh Hasher that has folded salt and the result
// schema, folding them only when the salt differs from the last call's.
func prefixFor(salt string) *memo.Hasher {
	p := lastPrefix.Load()
	if p == nil || p.salt != salt {
		h := memo.New(salt)
		h.Str(resultSchema)
		p = &keyPrefix{salt: salt, h: h}
		lastPrefix.Store(p)
	}
	return p.h.Clone()
}

// Hash returns the job's content identity under the current code-version
// salt: H(salt, result schema, canonical input encoding). Two jobs hash
// equal exactly when the determinism gates guarantee they produce identical
// results on this code version. An engine job over a trace from traceFor
// uses the hash stored with that trace; any other trace (a worker's fetched
// copy, a /v1/simulate body, a fresh trace.Generate) is hashed in full. The
// key is the same either way.
func (j Job) Hash() (memo.Hash, error) {
	return j.hashSalted(codeSalt)
}

func (j Job) hashSalted(salt string) (memo.Hash, error) {
	h := prefixFor(salt)
	switch {
	case j.Engine != nil && j.Numa == nil:
		h.Str("engine")
		var b []byte
		var err error
		if th, ok := memoizedTraceHash(j.Engine.Trace); ok {
			b, err = j.Engine.CanonicalBinaryWithTraceHash(th)
		} else {
			b, err = j.Engine.CanonicalBinary()
		}
		if err != nil {
			return memo.Hash{}, err
		}
		h.Bytes(b)
	case j.Numa != nil && j.Engine == nil:
		j.Numa.fold(h)
	default:
		return memo.Hash{}, fmt.Errorf("harness: job must set exactly one of Engine/Numa")
	}
	return h.Sum(), nil
}

// fold folds the numasim job's identity into a job key.
func (n *NumaJob) fold(h *memo.Hasher) {
	model := n.Model
	if model == "" {
		model = numasim.ModelAnalytic // RunModel's own defaulting
	}
	h.Str("numa")
	h.Str(string(model))
	p := n.Platform
	h.F64(p.LocalGBs)
	h.F64(p.RemoteGBs)
	h.F64(p.InterconnectGBs)
	h.F64(p.CXLGBs)
	h.F64(p.LocalLatNS)
	h.F64(p.RemoteLatNS)
	h.F64(p.CXLLatNS)
	w := n.Workload
	h.I64(int64(w.Threads))
	h.I64(int64(w.EmbDim))
	h.I64(w.TableSize)
	h.I64(int64(w.Tables))
	h.I64(int64(w.BatchSize))
	h.Str(string(w.Threading))
	h.F64(w.RemoteShare)
	h.Str(string(n.Placement))
}

// EncodeJobResult serializes a result for the cache and the distribution
// wire. The payload format is JSON — corruption safety comes from the
// store's framing and checksum, and schema safety from the result-schema
// fingerprint in the key, so the payload encoding only has to round-trip
// exactly. encoding/json emits the shortest float representation that
// parses back to the identical bits, which is what keeps warm tables
// byte-identical to cold ones — and a decode→re-encode cycle (a worker
// result passing through the coordinator) byte-stable.
func EncodeJobResult(r JobResult) ([]byte, error) { return json.Marshal(r) }

// DecodeJobResult is the inverse of EncodeJobResult.
func DecodeJobResult(payload []byte) (JobResult, error) {
	var r JobResult
	err := json.Unmarshal(payload, &r)
	return r, err
}

// memoStore is the cache behind every sweep; nil disables memoization.
var memoStore *memo.Store

// SetStore installs the result cache used by all sweeps (nil disables
// memoization) and returns the previous store. CLI front-ends call it once
// at startup with a store opened from -cache-dir.
func SetStore(s *memo.Store) *memo.Store {
	prev := memoStore
	memoStore = s
	return prev
}

// CurrentStore returns the installed result cache (nil when memoization is
// disabled). Worker mode reuses it as the worker's local cache.
func CurrentStore() *memo.Store { return memoStore }

// CacheStats returns the installed store's counters (zero Stats without a
// store).
func CacheStats() memo.Stats {
	if memoStore == nil {
		return memo.Stats{}
	}
	return memoStore.Stats()
}

// execJob runs one job for real, an engine job at its own Shards.
func execJob(j Job) JobResult {
	switch {
	case j.Engine != nil:
		return JobResult{Engine: run(*j.Engine)}
	case j.Numa != nil:
		res, err := numasim.RunModel(j.Numa.Model, j.Numa.Platform, j.Numa.Workload, j.Numa.Placement)
		if err != nil {
			panic(err)
		}
		return JobResult{Numa: res}
	}
	panic("harness: empty job")
}

// Distributor executes a sweep's cache-miss set, possibly on remote
// workers. jobs and hashes are parallel; localWorkers is the caller's pool
// width (the local-fallback concurrency bound); runLocal(k) executes miss k
// on the calling process. The returned slice is parallel to jobs. The
// contract is pure delegation: a distributor must return, for every miss,
// exactly the JobResult runLocal would have produced — results are content-
// addressed, so where a job ran can never show in its bytes.
type Distributor func(jobs []Job, hashes []memo.Hash, localWorkers int, runLocal func(k int) JobResult) []JobResult

// distributor is the installed distribution seam; nil keeps every miss on
// the local pool.
var distributor Distributor

// SetDistributor installs the distribution seam behind RunJobs (nil
// restores pool-local execution) and returns the previous one. The serve
// coordinator installs its job board here; worker processes never install
// one (their RunJobsLocal path bypasses it by construction, so a worker can
// not recursively distribute).
func SetDistributor(d Distributor) Distributor {
	prev := distributor
	distributor = d
	return prev
}

// RunJobs executes a job list and returns results in submission order.
// With a store installed (SetStore) it computes every job's key and decodes
// every hit across the pool, reads the store in one serial loop, simulates
// only the cache misses — in parallel across the pool, or through the
// installed Distributor — and backfills the cache; without one it
// degenerates to the plain parallel sweep. Either way the result slice is
// identical: memoization and distribution are invisible except in
// wall-clock and counters.
func (r *Runner) RunJobs(jobs []Job) []JobResult {
	return r.runJobs(memoStore, distributor, jobs)
}

// RunJobsLocal is RunJobs against an explicit store and never distributes:
// the pull-worker loop runs leased jobs through it so a worker answers from
// its own cache first and can never re-enter the coordinator's job board.
func (r *Runner) RunJobsLocal(st *memo.Store, jobs []Job) []JobResult {
	return r.runJobs(st, nil, jobs)
}

func (r *Runner) runJobs(st *memo.Store, dist Distributor, jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	if st == nil {
		r.Do(len(jobs), func(i int) { out[i] = execJob(jobs[i]) })
		return out
	}
	// Keys and decodes are CPU work and run across the pool. The store
	// reads stay in one loop in index order, so every store counter,
	// including which reads the LRU answers, is the same at every width.
	hashes := make([]memo.Hash, len(jobs))
	r.Do(len(jobs), func(i int) {
		h, err := jobs[i].Hash()
		if err != nil {
			panic(err) // harness configs are code, not user input
		}
		hashes[i] = h
	})
	payloads := make([][]byte, len(jobs))
	hit := make([]bool, len(jobs))
	for i, h := range hashes {
		payloads[i], hit[i] = st.Get(h)
	}
	r.Do(len(jobs), func(i int) {
		if !hit[i] {
			return
		}
		res, err := DecodeJobResult(payloads[i])
		if err != nil {
			// A framed, checksummed entry that fails to decode should be
			// impossible; treat it as a miss all the same.
			hit[i] = false
			return
		}
		out[i] = res
	})
	miss := make([]int, 0, len(jobs))
	for i := range jobs {
		if !hit[i] {
			miss = append(miss, i)
		}
	}
	if dist != nil && len(miss) > 0 {
		missJobs := make([]Job, len(miss))
		missHashes := make([]memo.Hash, len(miss))
		for k, i := range miss {
			missJobs[k] = jobs[i]
			missHashes[k] = hashes[i]
		}
		res := dist(missJobs, missHashes, r.workers, func(k int) JobResult {
			return execJob(missJobs[k])
		})
		for k, i := range miss {
			out[i] = res[k]
		}
	} else {
		r.Do(len(miss), func(k int) { out[miss[k]] = execJob(jobs[miss[k]]) })
	}
	for _, i := range miss {
		if payload, err := EncodeJobResult(out[i]); err == nil {
			// Put failures (read-only dir, full disk) are counted by the
			// store and degrade the cache to cost, never correctness.
			_ = st.Put(hashes[i], payload)
		}
	}
	return out
}

// spec is one experiment in job/assemble form: an ordered list of phases —
// each producing a job list, later phases seeing all earlier results — and
// a pure assembly function mapping the concatenated results to the printed
// table. Most experiments have one phase. Four have more: the fault sweep
// has 2 (its chaos plans are scaled by the clean phase's runtimes),
// latency-knee and latency-sweep have 3 (closed-loop capacity, unloaded
// probe, load grid), and max-qps has 8 (the same two probes, then one phase
// per bisection step). Zero-phase specs are analytic tables (TCO, power)
// with no simulation behind them.
type spec struct {
	phases   []phaseFn
	assemble func(results []JobResult) *report.Table
}

type phaseFn func(prior []JobResult) []Job

// staticPhases wraps a result-independent job list as a single phase.
func staticPhases(jobs func() []Job) []phaseFn {
	return []phaseFn{func([]JobResult) []Job { return jobs() }}
}

// runSpec executes every phase through the (possibly memoized) runner and
// assembles the table.
func (r *Runner) runSpec(sp spec) *report.Table {
	var results []JobResult
	for _, ph := range sp.phases {
		results = append(results, r.RunJobs(ph(results))...)
	}
	return sp.assemble(results)
}

// Jobs returns an experiment's declarative job list: its first phase's
// jobs. For a single-phase experiment that is the complete list. The fault
// sweep, latency-knee, latency-sweep and max-qps derive their later phases
// from earlier results (see spec), so Jobs returns only their first phase.
// Unknown ids and purely analytic experiments return nil.
//
// The returned jobs share their traces with every other job built on the
// same trace spec, in this and every later call. A caller that changes a
// job copies its engine.Config first and never modifies Trace.Bags: the
// hash stored with a shared trace keys every job over it.
func Jobs(id string) []Job {
	sp, ok := specs()[id]
	if !ok || len(sp.phases) == 0 {
		return nil
	}
	return sp.phases[0](nil)
}
