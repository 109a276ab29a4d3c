package sim

import "fmt"

// LookaheadError reports a cross-group message posted for delivery inside
// the current conservative window — a component wired with a latency below
// the engine's lookahead, which would make results placement-dependent.
// Outbox.Post panics with it; ShardedEngine.RunChecked converts the panic
// into an ordinary error.
type LookaheadError struct {
	Port      int32
	At        Tick
	WindowEnd Tick
}

func (e *LookaheadError) Error() string {
	return fmt.Sprintf("sim: message on port %d delivered at %d inside the current window ending %d — lookahead violated",
		e.Port, e.At, e.WindowEnd)
}

// PortOwnerError reports a Post on a port from a group other than the one
// that first posted on it. A port's messages must all come from one outbox
// for the barrier's port-order delivery to keep them in seq order, so a
// shared port is a wiring bug. Outbox.Post panics with it;
// ShardedEngine.RunChecked converts the panic into an ordinary error.
type PortOwnerError struct {
	Port  int32
	Owner int32 // the group that first posted on the port
	Group int32 // the group that posted on it since
}

func (e *PortOwnerError) Error() string {
	return fmt.Sprintf("sim: group %d posted on port %d, which group %d owns — one sending group per port",
		e.Group, e.Port, e.Owner)
}

// EventLimitError reports a group engine blowing through its configured
// event budget — the runaway-simulation watchdog. Engine.fire panics with
// it; ShardedEngine.RunChecked converts the panic into an ordinary error.
type EventLimitError struct {
	Limit uint64
	At    Tick
}

func (e *EventLimitError) Error() string {
	return fmt.Sprintf("sim: event limit %d exceeded at t=%d", e.Limit, e.At)
}

// ElisionError reports a barrier elision attempted while a cross-group
// message was still staged in an outbox — eliding the window would silently
// drop it. The engine only elides after verifying every outbox is empty, so
// this firing means the elision gate and the outbox state disagree (an
// engine bug, not a component one). elideWindow panics with it;
// ShardedEngine.RunChecked converts the panic into an ordinary error.
type ElisionError struct {
	Group  int32
	Staged int
}

func (e *ElisionError) Error() string {
	return fmt.Sprintf("sim: barrier elision with %d staged message(s) in group %d's outbox — elision gate violated",
		e.Staged, e.Group)
}

// RunChecked is Run with the engine-level watchdogs converted to errors: a
// lookahead violation, an event-limit blowout, a failed elision check or a
// post on another group's port, on any worker, surfaces as a structured
// error on the caller instead of killing the process. Panics
// that are not engine contract violations propagate unchanged.
func (se *ShardedEngine) RunChecked() (end Tick, err error) {
	defer func() {
		if p := recover(); p != nil {
			switch e := p.(type) {
			case *LookaheadError:
				err = e
			case *EventLimitError:
				err = e
			case *ElisionError:
				err = e
			case *PortOwnerError:
				err = e
			default:
				panic(p)
			}
		}
	}()
	return se.Run(), nil
}
