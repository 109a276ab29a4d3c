package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pifsrec/internal/engine"
	"pifsrec/internal/memo"
	"pifsrec/internal/scenario"
	"pifsrec/internal/trace"
)

// withStore installs a store for the test's duration and restores the
// previous one (normally nil) afterwards.
func withStore(t *testing.T, s *memo.Store) {
	t.Helper()
	prev := SetStore(s)
	t.Cleanup(func() { SetStore(prev) })
}

// renderAll prints every experiment (the pifsbench RunAll bytes) per id.
func renderAll(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string, len(IDs()))
	for _, id := range IDs() {
		var buf bytes.Buffer
		if err := Run(id, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out[id] = buf.String()
	}
	return out
}

func diffTables(t *testing.T, want, got map[string]string, phase string) {
	t.Helper()
	for id, w := range want {
		if got[id] != w {
			t.Errorf("%s: experiment %s produced different bytes than the uncached run", phase, id)
		}
	}
}

// TestMemoizedTablesByteIdentical is the memoization correctness property
// over the full experiment set: tables are byte-identical with no cache,
// with a cold cache, with a warm cache, and after an unrelated config has
// been cached in between — memoization is visible only in wall clock and
// counters. Every simulated job in the warm pass must hit.
func TestMemoizedTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep (x3) in -short mode")
	}
	baseline := renderAll(t)

	store, err := memo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withStore(t, store)

	cold := renderAll(t)
	diffTables(t, baseline, cold, "cold cache")
	afterCold := store.Stats()
	if afterCold.Misses == 0 {
		t.Fatal("cold pass recorded no misses")
	}

	warm := renderAll(t)
	diffTables(t, baseline, warm, "warm cache")
	afterWarm := store.Stats()
	if extra := afterWarm.Misses - afterCold.Misses; extra != 0 {
		t.Errorf("warm pass missed %d times; every job must hit", extra)
	}
	if afterWarm.Hits <= afterCold.Hits {
		t.Error("warm pass recorded no hits")
	}

	// An unrelated config entering the cache must not perturb any table.
	m := scaledRMC4()
	tr := traceFor(trace.Uniform, m, 1)
	unrelated := schemeConfig(engine.PIFSRec, m, tr)
	unrelated.Devices = 16
	unrelated.Seed = 99
	pool.RunConfigs([]engine.Config{unrelated})

	again := renderAll(t)
	diffTables(t, baseline, again, "warm cache after unrelated insert")
	checkMemoizedTracesUnmutated(t)
}

// TestOneConfigEditExactlyOneMiss is the incremental re-simulation
// property: editing one config in a sweep re-simulates exactly that config.
func TestOneConfigEditExactlyOneMiss(t *testing.T) {
	store, err := memo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withStore(t, store)

	jobs := Jobs("fig13a")
	if len(jobs) == 0 {
		t.Fatal("fig13a has no jobs")
	}
	pool.RunJobs(jobs)
	cold := store.Stats()
	if cold.Misses != int64(len(jobs)) {
		t.Fatalf("cold run: %d misses for %d jobs", cold.Misses, len(jobs))
	}

	edited := Jobs("fig13a")
	cfg := *edited[3].Engine // one config edited, the rest untouched
	cfg.MigrateThreshold = 0.42
	edited[3].Engine = &cfg
	pool.RunJobs(edited)
	after := store.Stats()
	if miss := after.Misses - cold.Misses; miss != 1 {
		t.Errorf("edited sweep missed %d times, want exactly 1", miss)
	}
	if hits := after.Hits - cold.Hits; hits != int64(len(jobs)-1) {
		t.Errorf("edited sweep hit %d times, want %d", hits, len(jobs)-1)
	}
}

// TestSaltBumpInvalidatesEverything asserts bumping the code-version salt
// turns every cached entry into a miss — the mechanism that makes stale
// results unreachable after a simulator change.
func TestSaltBumpInvalidatesEverything(t *testing.T) {
	store, err := memo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withStore(t, store)

	jobs := Jobs("ablation-interleave")
	pool.RunJobs(jobs)
	pool.RunJobs(jobs)
	warm := store.Stats()
	if warm.Misses != int64(len(jobs)) {
		t.Fatalf("warm run still missing: %d misses for %d jobs", warm.Misses, len(jobs))
	}

	prevSalt := codeSalt
	codeSalt = prevSalt + "-bumped"
	defer func() { codeSalt = prevSalt }()

	pool.RunJobs(jobs)
	bumped := store.Stats()
	if miss := bumped.Misses - warm.Misses; miss != int64(len(jobs)) {
		t.Errorf("after salt bump: %d misses, want %d (every entry invalidated)", miss, len(jobs))
	}
}

// TestCorruptCacheCannotChangeResults flips a payload bit in every record
// of the cache's log and asserts the sweep still produces byte-identical
// tables, counting each record corrupt once — corruption can only cost
// re-simulation, never correctness.
func TestCorruptCacheCannotChangeResults(t *testing.T) {
	var baseline bytes.Buffer
	if err := Run("ablation-migration", &baseline); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	store, err := memo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	withStore(t, store)
	var cold bytes.Buffer
	if err := Run("ablation-migration", &cold); err != nil {
		t.Fatal(err)
	}
	if cold.String() != baseline.String() {
		t.Fatal("cold cached table differs from uncached table")
	}

	// Flip a payload bit in every record of the store's log.
	logPath := filepath.Join(dir, "results.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for off := 0; off < len(raw); records++ {
		if len(raw)-off < memo.FrameOverhead {
			t.Fatalf("log ends in a %d-byte fragment", len(raw)-off)
		}
		// A record is a 46-byte header (its payload length in the last 4
		// bytes), the payload and a 4-byte CRC.
		plen := int(binary.LittleEndian.Uint32(raw[off+42:]))
		raw[off+46+plen/2] ^= 0x01
		off += memo.FrameOverhead + plen
	}
	if records == 0 {
		t.Fatal("no cache records written")
	}
	if err := os.WriteFile(logPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the damaged directory (cold LRU, like a new
	// process) must re-simulate and reproduce the exact bytes.
	fresh, err := memo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	SetStore(fresh)
	var damaged bytes.Buffer
	if err := Run("ablation-migration", &damaged); err != nil {
		t.Fatal(err)
	}
	if damaged.String() != baseline.String() {
		t.Error("corrupt cache changed the table bytes")
	}
	st := fresh.Stats()
	if st.CorruptEntries != int64(records) {
		t.Errorf("%d corrupt entries detected, want %d", st.CorruptEntries, records)
	}
}

// TestScenarioMemoKeys pins the scenario layer's cache semantics at the job
// level: a nil and a present-but-empty scenario spec hash identically — a
// non-scenario job's key is untouched by the feature — while a real spec
// (and each of its knobs) changes the key. The schema fingerprint folded
// into every hash must name the new Latency field: that fingerprint is what
// already invalidated every pre-scenario cache entry when Result grew the
// field, which is why memo.CodeVersion did not need a bump.
func TestScenarioMemoKeys(t *testing.T) {
	m := scaledRMC4()
	tr := traceFor(trace.Uniform, m, 1)
	base := schemeConfig(engine.PIFSRec, m, tr)

	hash := func(c engine.Config) memo.Hash {
		t.Helper()
		h, err := (Job{Engine: &c}).Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	nilKey := hash(base)
	empty := base
	empty.Scenario = &scenario.Spec{}
	if hash(empty) != nilKey {
		t.Error("empty scenario spec changed a non-scenario job's memo key")
	}

	open := base
	open.Scenario = &scenario.Spec{Kind: scenario.Poisson, QPS: 1e6, Seed: 2}
	openKey := hash(open)
	if openKey == nilKey {
		t.Error("open-loop job hashed identically to its closed-loop twin")
	}
	faster := open
	faster.Scenario = &scenario.Spec{Kind: scenario.Poisson, QPS: 2e6, Seed: 2}
	if hash(faster) == openKey {
		t.Error("scenario QPS is not part of the memo key")
	}

	if !strings.Contains(resultSchema, "Latency") {
		t.Error("result schema fingerprint does not cover Result.Latency; stale pre-scenario cache entries could alias")
	}
}

// TestJobsAPI pins the Jobs contract: known sweeps return their job lists,
// analytic tables and unknown ids return nil.
func TestJobsAPI(t *testing.T) {
	if n := len(Jobs("fig13a")); n != 18 {
		t.Errorf("fig13a has %d jobs, want 18 (9 thresholds x 2 mechanisms)", n)
	}
	if n := len(Jobs("fig12a")); n != 20 {
		t.Errorf("fig12a has %d jobs, want 20 (4 models x 5 schemes)", n)
	}
	if Jobs("fig16") != nil {
		t.Error("analytic fig16 returned jobs")
	}
	if Jobs("no-such-id") != nil {
		t.Error("unknown id returned jobs")
	}
	for _, j := range Jobs("fig5") {
		if j.Engine != nil || j.Numa == nil {
			t.Fatal("fig5 job is not a numasim job")
		}
	}
	if _, err := (Job{}).Hash(); err == nil {
		t.Error("empty job hashed without error")
	}
}

// referenceJobKey is a job's key built the long way: a fresh Hasher over
// the salt and the result schema, then, for an engine job, the full
// CanonicalBinary, which serializes and hashes the whole trace. Job.Hash
// must produce exactly this key while it clones a prefix folded once per
// salt and reuses the hash stored with a memoized trace.
func referenceJobKey(t *testing.T, j Job) memo.Hash {
	t.Helper()
	h := memo.New(codeSalt)
	h.Str(resultSchema)
	switch {
	case j.Engine != nil:
		b, err := j.Engine.CanonicalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h.Str("engine")
		h.Bytes(b)
	case j.Numa != nil:
		j.Numa.fold(h)
	default:
		t.Fatal("empty job")
	}
	return h.Sum()
}

// TestJobHashMatchesFullTraceHash holds Job.Hash to referenceJobKey on
// every first-phase job of every experiment, on each fig13a job edited as
// the benchmark's edits are (config copied, Seed changed, trace shared),
// and on a job over a fresh generation of a memoized trace spec, which has
// the same bytes behind another pointer and so no stored hash. Each
// first-phase engine job is also keyed as a pull worker keys it: over a
// copy of its trace decoded from PIFSTRC1 bytes, through HashWithTraceHash
// with the copy's hash, computed once per trace.
func TestJobHashMatchesFullTraceHash(t *testing.T) {
	key := func(name string, j Job) memo.Hash {
		t.Helper()
		got, err := j.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := referenceJobKey(t, j); got != want {
			t.Errorf("%s: key %s, want %s", name, got.Hex()[:12], want.Hex()[:12])
		}
		return got
	}
	type fetched struct {
		tr   *trace.Trace
		hash [32]byte
	}
	decoded := make(map[*trace.Trace]fetched)
	fetch := func(tr *trace.Trace) fetched {
		t.Helper()
		if f, ok := decoded[tr]; ok {
			return f
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatal(err)
		}
		cp, err := trace.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		h, err := cp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		decoded[tr] = fetched{cp, h}
		return decoded[tr]
	}
	n := 0
	for _, id := range IDs() {
		for i, j := range Jobs(id) {
			name := fmt.Sprintf("%s job %d", id, i)
			want := key(name, j)
			n++
			if j.Engine == nil {
				continue
			}
			f := fetch(j.Engine.Trace)
			cfg := *j.Engine
			cfg.Trace = f.tr
			if got, err := (Job{Engine: &cfg}).HashWithTraceHash(f.hash); err != nil || got != want {
				t.Errorf("%s over a decoded copy of its trace: key %s (%v), want %s", name, got.Hex()[:12], err, want.Hex()[:12])
			}
		}
	}
	if n == 0 {
		t.Fatal("no experiment has first-phase jobs")
	}
	t.Logf("%d first-phase jobs checked", n)

	jobs := Jobs("fig13a")
	for i, j := range jobs {
		cfg := *j.Engine
		cfg.Seed = 1000 + uint64(i)
		if key(fmt.Sprintf("edited fig13a job %d", i), Job{Engine: &cfg}) == key(fmt.Sprintf("fig13a job %d", i), j) {
			t.Errorf("editing fig13a job %d's seed kept its key", i)
		}
	}

	shared := jobs[0].Engine.Trace
	var sp trace.Spec
	found := false
	traceMu.Lock()
	for s, tr := range traceMemo {
		if tr == shared {
			sp, found = s, true
		}
	}
	traceMu.Unlock()
	if !found {
		t.Fatal("fig13a job 0's trace is not memoized")
	}
	fresh, err := trace.Generate(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := memoizedTraceHash(fresh); ok {
		t.Fatal("a freshly generated trace has a stored hash")
	}
	cfg := *jobs[0].Engine
	cfg.Trace = fresh
	if key("job over a fresh trace", Job{Engine: &cfg}) != key("job over the memoized trace", jobs[0]) {
		t.Error("a job over a fresh generation of a memoized spec keys differently from the memoized one")
	}
}

// TestWarmLookupsMatchSerial pins what the pooled key and decode path does
// to the store. fig5 (numasim jobs, some repeated within one call), fig12a
// and latency-knee (3 phases) run cold into a fresh directory, then warm
// through a second memo.Open of it, first at pool width 1 and then at
// width 4 on another directory. The tables must be byte-identical across
// widths, and every Stats counter equal between widths after each pass:
// store reads happen in job order at any width, so the same reads reach
// disk and the same ones hit the memory cache. fig5's repeats sit far
// apart, where even unordered reads would seldom overlap, so a third pass
// through another memo.Open runs fig5's jobs each twice in a row: a read
// that raced its twin would go to disk twice.
func TestWarmLookupsMatchSerial(t *testing.T) {
	ids := []string{"fig5", "fig12a", "latency-knee"}
	fig5 := Jobs("fig5")
	distinct := make(map[memo.Hash]bool, len(fig5))
	twins := make([]Job, 0, 2*len(fig5))
	for _, j := range fig5 {
		h, err := j.Hash()
		if err != nil {
			t.Fatal(err)
		}
		distinct[h] = true
		twins = append(twins, j, j)
	}
	if len(distinct) == len(fig5) {
		t.Fatal("fig5 no longer repeats a job within one call")
	}

	type pass struct {
		out   string
		stats memo.Stats
	}
	sweep := func(width int) []pass {
		dir := t.TempDir()
		r := NewRunner(width)
		run := func(body func(b *strings.Builder)) pass {
			st, err := memo.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			prev := SetStore(st)
			defer SetStore(prev)
			var b strings.Builder
			body(&b)
			return pass{b.String(), st.Stats()}
		}
		tables := func(b *strings.Builder) {
			for _, id := range ids {
				r.runSpec(specs()[id]).Fprint(b)
			}
		}
		return []pass{run(tables), run(tables), run(func(b *strings.Builder) {
			for _, res := range r.RunJobs(twins) {
				p, err := EncodeJobResult(res)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(p)
			}
		})}
	}
	serial, wide := sweep(1), sweep(4)
	cold, warm := serial[0], serial[1]
	if cold.stats.Misses == 0 || warm.stats.Misses != 0 || serial[2].stats.Misses != 0 {
		t.Fatalf("serial passes missed %d, %d and %d times; want some, then none", cold.stats.Misses, warm.stats.Misses, serial[2].stats.Misses)
	}
	if warm.stats.MemHits == 0 || warm.stats.GetBytes == 0 {
		t.Fatalf("serial warm pass: %+v; want reads from disk and from memory", warm.stats)
	}
	if warm.out != cold.out {
		t.Error("warm tables differ from cold tables")
	}
	for i, name := range []string{"cold", "warm", "twin"} {
		if wide[i].out != serial[i].out {
			t.Errorf("%s pass: width-4 output differs from width-1 output", name)
		}
		if wide[i].stats != serial[i].stats {
			t.Errorf("%s pass: width-4 store counters %+v, want the width-1 %+v", name, wide[i].stats, serial[i].stats)
		}
	}
}
