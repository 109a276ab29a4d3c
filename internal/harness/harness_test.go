package harness

import (
	"io"
	"maps"
	"strings"
	"sync"
	"testing"

	"pifsrec/internal/dlrm"
	"pifsrec/internal/engine"
	"pifsrec/internal/trace"
)

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Experiments()) {
		t.Fatal("IDs out of sync with Experiments")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("IDs not sorted")
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if err := Run("fig99", io.Discard); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestEveryExperimentProducesATable(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness sweep is slow")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			var b strings.Builder
			if err := Run(id, &b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if !strings.Contains(out, "==") || len(out) < 100 {
				t.Fatalf("suspiciously small output:\n%s", out)
			}
		})
	}
}

// TestTraceForSharedAndUnmutated pins the traceFor memo: equal inputs get
// one shared trace, concurrent first calls agree on it, and rendering the
// experiments that build the most jobs over shared traces leaves every
// memoized trace byte-identical to a fresh generation of its spec.
func TestTraceForSharedAndUnmutated(t *testing.T) {
	m := scaledRMC4()
	if a, b := traceFor(trace.MetaLike, m, 2), traceFor(trace.MetaLike, m, 2); a != b {
		t.Error("equal inputs returned different traces")
	}
	rmc3 := dlrm.RMC3().Scaled(64)
	if rmc3.Tables != m.Tables || rmc3.EmbRows != m.EmbRows {
		t.Fatalf("scaled RMC3 (%d x %d) and RMC4 (%d x %d) no longer share a shape",
			rmc3.Tables, rmc3.EmbRows, m.Tables, m.EmbRows)
	}
	if traceFor(trace.MetaLike, rmc3, 2) != traceFor(trace.MetaLike, m, 2) {
		t.Error("scaled RMC3 and RMC4 have one trace spec but got different traces")
	}
	if traceFor(trace.Zipfian, m, 2) == traceFor(trace.MetaLike, m, 2) ||
		traceFor(trace.MetaLike, m, 3) == traceFor(trace.MetaLike, m, 2) {
		t.Error("different specs share a trace")
	}
	// Experiments built on one spec share the trace across job lists.
	a, c := Jobs("fig12a"), Jobs("fig12c")
	if a[2*len(engine.Schemes())].Engine.Trace != c[0].Engine.Trace {
		t.Error("fig12a's RMC3 jobs and fig12c's RMC4 jobs do not share their trace")
	}

	// A spec no other test uses, so the goroutines race on its first call.
	const callers = 8
	got := make([]*trace.Trace, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = traceFor(trace.Normal, m, 5)
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("concurrent caller %d got a different trace", i)
		}
	}

	if testing.Short() {
		t.Skip("rendering four experiments in -short mode")
	}
	for _, id := range []string{"fig12b", "fig13c", "fig14", "fault-sweep"} {
		if err := Run(id, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	checkMemoizedTracesUnmutated(t)
}

// checkMemoizedTracesUnmutated fails the test if any trace in the traceFor
// memo no longer hashes equal to a fresh generation of its spec or to the
// hash stored beside it, that is, if some job modified a shared trace.
func checkMemoizedTracesUnmutated(t *testing.T) {
	t.Helper()
	traceMu.Lock()
	memo := maps.Clone(traceMemo)
	traceMu.Unlock()
	if len(memo) == 0 {
		t.Fatal("the trace memo is empty")
	}
	for sp, tr := range memo {
		fresh, err := trace.Generate(sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.Hash()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("memoized trace %+v was modified after generation", sp)
		}
		// Job.Hash keys every job over a memoized trace by the hash stored
		// when it was generated, so a modified trace would also give those
		// jobs wrong cache keys.
		if stored, ok := memoizedTraceHash(tr); !ok {
			t.Errorf("memoized trace %+v has no stored hash", sp)
		} else if stored != got {
			t.Errorf("memoized trace %+v no longer matches its stored hash", sp)
		}
	}
}
