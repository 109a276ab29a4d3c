package sim

import (
	"errors"
	"testing"
)

// TestRunCheckedLookaheadError posts a cross-group message with a latency
// below the conservative window and expects a structured error naming the
// port and times, instead of a process-killing panic.
func TestRunCheckedLookaheadError(t *testing.T) {
	f := newFakeNet(2, 2, 50)
	se := f.se
	p := se.NewPort()
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(p, 1, 1, 20, Payload{}, nil) // inside window [0, 50)
	})
	_, err := se.RunChecked()
	var le *LookaheadError
	if !errors.As(err, &le) {
		t.Fatalf("want *LookaheadError, got %v", err)
	}
	if le.Port != p || le.At != 20 {
		t.Errorf("error fields = port %d at %d, want port %d at 20", le.Port, le.At, p)
	}
	if le.Error() == "" {
		t.Error("empty error message")
	}
}

// TestRunCheckedEventLimitError: the runaway-simulation watchdog surfaces as
// an error on the caller, with the limit it tripped.
func TestRunCheckedEventLimitError(t *testing.T) {
	se := NewSharded(1, 50)
	addGroups(se, func(Envelope) {}, 1)
	eng := se.Group(0)
	eng.SetEventLimit(10)
	var chain func()
	chain = func() { eng.After(1, chain) }
	eng.At(0, chain)
	_, err := se.RunChecked()
	var ee *EventLimitError
	if !errors.As(err, &ee) {
		t.Fatalf("want *EventLimitError, got %v", err)
	}
	if ee.Limit != 10 {
		t.Errorf("Limit = %d, want 10", ee.Limit)
	}
}

// TestRunCheckedCleanRun returns the end tick and no error on a healthy
// workload.
func TestRunCheckedCleanRun(t *testing.T) {
	f := newFakeNet(2, 2, 50)
	se := f.se
	p := se.NewPort()
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(p, 1, 1, 80, Payload{U0: 1}, nil)
	})
	end, err := se.RunChecked()
	if err != nil {
		t.Fatalf("clean run errored: %v", err)
	}
	if end < 80 {
		t.Errorf("end tick %d before last delivery at 80", end)
	}
	if len(f.order) != 1 {
		t.Errorf("delivered %d messages, want 1", len(f.order))
	}
}

// TestRunCheckedPassthroughPanic: panics that are not engine contract
// violations must propagate unchanged — RunChecked only launders the two
// structured watchdogs.
func TestRunCheckedPassthroughPanic(t *testing.T) {
	se := NewSharded(1, 50)
	addGroups(se, func(Envelope) {}, 1)
	se.Group(0).At(0, func() { panic("component bug") })
	defer func() {
		if p := recover(); p == nil {
			t.Error("foreign panic was swallowed")
		}
	}()
	se.RunChecked() //nolint:errcheck // must panic, not return
	t.Error("unreachable: RunChecked returned")
}
