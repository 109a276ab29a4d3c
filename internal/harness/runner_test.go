package harness

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pifsrec/internal/engine"
	"pifsrec/internal/report"
	"pifsrec/internal/trace"
)

func TestRunnerDoCoversAllJobs(t *testing.T) {
	r := NewRunner(4)
	if r.Workers() != 4 {
		t.Fatalf("Workers = %d, want 4", r.Workers())
	}
	var hits [100]atomic.Int32
	r.Do(len(hits), func(i int) { hits[i].Add(1) })
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
	r.Do(0, func(int) { t.Fatal("job ran for n=0") })
}

func TestRunnerDoPropagatesPanic(t *testing.T) {
	r := NewRunner(3)
	boom := errors.New("boom")
	defer func() {
		if p := recover(); p != boom {
			t.Fatalf("recovered %v, want %v", p, boom)
		}
	}()
	r.Do(8, func(i int) {
		if i == 5 {
			panic(boom)
		}
	})
}

func TestRunConfigsOrdered(t *testing.T) {
	m := scaledRMC4()
	tr := traceFor(trace.MetaLike, m, 1)
	var cfgs []engine.Config
	for _, s := range engine.Schemes() {
		cfgs = append(cfgs, schemeConfig(s, m, tr))
	}
	serial := NewRunner(1).RunConfigs(cfgs)
	parallel := NewRunner(4).RunConfigs(cfgs)
	for i := range cfgs {
		if serial[i].Scheme != cfgs[i].Scheme || parallel[i].Scheme != cfgs[i].Scheme {
			t.Fatalf("result %d out of order: serial=%s parallel=%s want %s",
				i, serial[i].Scheme, parallel[i].Scheme, cfgs[i].Scheme)
		}
		if serial[i].TotalNS != parallel[i].TotalNS || serial[i].NSPerBag != parallel[i].NSPerBag {
			t.Fatalf("result %d differs between serial and parallel pools", i)
		}
	}
}

// TestFiguresByteIdenticalAcrossPoolWidths renders representative converted
// sweeps with a serial pool and a wide pool and requires byte-identical
// tables — the harness's core determinism guarantee.
func TestFiguresByteIdenticalAcrossPoolWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-figure sweep in -short mode")
	}
	render := func(id string) []byte {
		var buf bytes.Buffer
		if err := Run(id, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, id := range []string{"fig12b", "fig12d", "fig13d"} {
		prev := SetParallelism(1)
		serial := render(id)
		SetParallelism(8)
		wide := render(id)
		SetParallelism(prev)
		if !bytes.Equal(serial, wide) {
			t.Errorf("%s: output differs between 1-worker and 8-worker pools", id)
		}
	}
}

// TestReportTablesShardInvariant renders the same scheme sweep as a report
// table at several explicit shard counts and requires byte-identical output
// against the 1-shard engine — the table-level form of the engine's
// shard-determinism guarantee.
func TestReportTablesShardInvariant(t *testing.T) {
	m := scaledRMC4()
	tr := traceFor(trace.MetaLike, m, 1)
	render := func(shards int) string {
		tbl := &report.Table{
			Title:  "shard-invariance matrix",
			Header: []string{"scheme", "ns/bag", "total ns", "up bytes", "buffer hit%"},
		}
		var cfgs []engine.Config
		for _, s := range engine.Schemes() {
			cfg := schemeConfig(s, m, tr)
			cfg.Shards = shards
			cfgs = append(cfgs, cfg)
		}
		for _, r := range pool.RunConfigs(cfgs) {
			tbl.AddRow(string(r.Scheme), r.NSPerBag, r.TotalNS, r.HostLinkUpBytes, 100*r.BufferHitRatio)
		}
		return tbl.String()
	}
	base := render(1)
	for _, n := range []int{2, 4, 8} {
		if got := render(n); got != base {
			t.Errorf("table at %d shards differs from the 1-shard engine:\n%s\nvs\n%s", n, got, base)
		}
	}
}

// TestRunConfigsIsolatedContainsPanic submits a sweep with one
// deliberately-panicking configuration (a bag whose row lies past its
// table, which engine.Run does not check and the embedding layout panics
// on) and one erroring configuration (unknown scheme): each must land in
// its own error slot while every healthy configuration still produces its
// normal result.
func TestRunConfigsIsolatedContainsPanic(t *testing.T) {
	m := scaledRMC4()
	good := traceFor(trace.MetaLike, m, 1)
	bad := *good // a copy: the shared trace stays as traceFor made it
	bad.Bags = slices.Clone(good.Bags)
	bad.Bags[0].Indices = []uint32{uint32(m.EmbRows)}
	poison := schemeConfig(engine.PIFSRec, m, &bad)
	cfgs := []engine.Config{
		schemeConfig(engine.PIFSRec, m, good),
		poison,
		schemeConfig(engine.Pond, m, good),
		{Scheme: "no-such-scheme", Model: m, Trace: good, Seed: 3},
	}
	for _, workers := range []int{1, 4} { // inline serial path and pooled path
		results, errs := NewRunner(workers).RunConfigsIsolated(cfgs)
		if len(results) != len(cfgs) || len(errs) != len(cfgs) {
			t.Fatalf("workers=%d: slots %d/%d, want %d", workers, len(results), len(errs), len(cfgs))
		}
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "panicked") ||
			!strings.Contains(errs[1].Error(), "config 1") || !strings.Contains(errs[1].Error(), "layout access") {
			t.Errorf("workers=%d: panicking config error = %v, want a named panic row", workers, errs[1])
		}
		if errs[3] == nil || strings.Contains(errs[3].Error(), "panicked") {
			t.Errorf("workers=%d: erroring config got %v, want a plain config error", workers, errs[3])
		}
		for _, i := range []int{0, 2} {
			if errs[i] != nil {
				t.Errorf("workers=%d: healthy config %d errored: %v", workers, i, errs[i])
			}
			if results[i].Bags == 0 {
				t.Errorf("workers=%d: healthy config %d produced an empty result", workers, i)
			}
		}
	}
	// Containment must not perturb the healthy results: the isolated run's
	// good rows match a plain RunConfigs of the same configurations.
	plain := NewRunner(1).RunConfigs([]engine.Config{cfgs[0], cfgs[2]})
	isolated, _ := NewRunner(1).RunConfigsIsolated(cfgs)
	if !reflect.DeepEqual(plain[0], isolated[0]) || !reflect.DeepEqual(plain[1], isolated[2]) {
		t.Error("isolated sweep's healthy results differ from RunConfigs")
	}
}
