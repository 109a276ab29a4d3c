package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func msec(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestSelfTimeOverlappingChildren checks that children running side by side
// are counted once, and that a child sticking out of its parent is clipped.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: msec(0), End: msec(100)},
		// Two pool jobs overlapping in [20,40) and a third later: covered
		// time is [10,50) + [60,70) = 50ms.
		{ID: 2, Parent: 1, Name: "job", Start: msec(10), End: msec(40)},
		{ID: 3, Parent: 1, Name: "job", Start: msec(20), End: msec(50)},
		{ID: 4, Parent: 1, Name: "job", Start: msec(60), End: msec(70)},
		// A grandchild never counts against the op, only against its parent.
		{ID: 5, Parent: 2, Name: "leaf", Start: msec(15), End: msec(25)},
		// A second op whose only child overruns it: self time floors at 0.
		{ID: 6, Name: "op", Start: msec(200), End: msec(210)},
		{ID: 7, Parent: 6, Name: "job", Start: msec(195), End: msec(230)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: msec(50), 2: msec(20), 3: msec(30), 4: msec(10), 5: msec(10), 6: 0, 7: msec(35)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestPoolFractions(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "setup", Start: 0, End: msec(500)},
		{ID: 2, Name: "op", Start: msec(1000), End: msec(1100)},
		{ID: 3, Parent: 2, Name: "job", Start: msec(1000), End: msec(1050)},
		{ID: 4, Parent: 2, Name: "job", Start: msec(1020), End: msec(1070)},
	}
	busy, residual := poolFractions(spans)
	// 100ms of jobs on a 2-wide pool over a 100ms op; [1000,1070) covered.
	if busy != 0.5 || residual != 0.3 {
		t.Errorf("poolFractions = %v, %v; want 0.5, 0.3", busy, residual)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	op := r.begin("op", 0, 0)
	job := r.begin("job", r.currentOp(), 1)
	r.end(job)
	r.setOn(false)
	if id := r.begin("ignored", 0, 0); id != 0 {
		t.Errorf("a switched-off recorder recorded span %d", id)
	}
	r.setOn(true)
	r.end(op)
	spans := r.closed()
	if len(spans) != 2 || spans[1].Parent != op || spans[1].Op != op || spans[0].Op != op {
		t.Errorf("spans = %+v, want a job under op %d sharing its op id", spans, op)
	}
	var nilRec *recorder
	nilRec.end(nilRec.begin("x", 0, 0)) // untraced runs call a nil recorder
}

func TestChromeTraceLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	spans := []span{{ID: 1, Op: 1, Name: "fig12a", Start: msec(1), End: msec(3)}}
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("got %d events, want 1", len(doc.TraceEvents))
	}
	if e := doc.TraceEvents[0]; e.Name != "fig12a" || e.Ph != "X" || e.TS != 1000 || e.Dur != 2000 {
		t.Errorf("event = %+v, want a complete event at 1000us lasting 2000us", e)
	}
}
