package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the program. Op spans (the
// closed loop's operations and set-ups) have no parent; job and layer spans
// hang off the op that caused them and share its op id.
type span struct {
	ID, Parent, Op int64
	Name           string
	Lane           int // display row: 0 for ops, pool worker number for jobs
	Start, End     time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder, or one
// switched off, records nothing, so untraced code paths call it freely.
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	op    atomic.Int64 // the op span in flight; the loop is closed, so one at most

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

// setOn switches recording on or off for the spans begun afterwards.
func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// begin opens a span and returns its id (0 when nothing is recorded). A
// parent of 0 makes it an op span.
func (r *recorder) begin(name string, parent int64, lane int) int64 {
	if r == nil || !r.on.Load() {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	op := id
	if parent > 0 {
		op = r.spans[parent-1].Op
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Lane: lane, Start: now, End: -1})
	r.mu.Unlock()
	if parent == 0 {
		r.op.Store(id)
	}
	return id
}

// end closes a span begun by begin.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// currentOp returns the op span in flight, the parent for spans begun on
// goroutines the op started.
func (r *recorder) currentOp() int64 {
	if r == nil {
		return 0
	}
	return r.op.Load()
}

// closed returns a copy of every finished span.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (jobs running
// side by side on the pool) count once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]time.Duration)
	for _, s := range spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
