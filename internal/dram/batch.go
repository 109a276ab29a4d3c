package dram

import (
	"fmt"

	"pifsrec/internal/sim"
)

// batchState tracks one in-flight batched operation: a single completion
// counter over its line requests plus the latest data-beat time. When the
// counter reaches zero the controller schedules ONE engine event (the slot's
// preallocated fire thunk) that delivers fnc(arg, at) at last+extra. fnc is
// a func value the submitter stores once, and slots recycle through a free
// list, so steady-state batched traffic allocates nothing.
type batchState struct {
	remaining int32
	last      sim.Tick
	extra     sim.Tick
	fnc       func(arg int32, at sim.Tick)
	arg       int32
	fire      func() // allocated once per slot, reused across recycles
}

// allocBatch returns an armed batch slot index.
func (c *Controller) allocBatch(lines int, extra sim.Tick, fnc func(int32, sim.Tick), arg int32) int32 {
	var id int32
	if n := len(c.freeBatches); n > 0 {
		id = c.freeBatches[n-1]
		c.freeBatches = c.freeBatches[:n-1]
	} else {
		c.batches = append(c.batches, batchState{})
		id = int32(len(c.batches) - 1)
		slot := id
		c.batches[id].fire = func() { c.fireBatch(slot) }
	}
	b := &c.batches[id]
	b.remaining = int32(lines)
	b.last = 0
	b.extra = extra
	b.fnc = fnc
	b.arg = arg
	return id
}

// lineIssued folds one issued line into its batch; once the last line has
// issued, every completion time is known and the single completion event is
// scheduled at the batch's final data-beat time plus its extra latency.
func (c *Controller) lineIssued(batch int32, doneAt sim.Tick) {
	b := &c.batches[batch]
	if doneAt > b.last {
		b.last = doneAt
	}
	b.remaining--
	if b.remaining == 0 {
		c.eng.At(b.last+b.extra, b.fire)
	}
}

// fireBatch releases the slot and delivers the completion. The slot is freed
// before the callback runs so fnc may immediately submit a new batch that
// reuses it.
func (c *Controller) fireBatch(id int32) {
	b := &c.batches[id]
	fnc, arg, at := b.fnc, b.arg, b.last+b.extra
	b.fnc = nil
	c.freeBatches = append(c.freeBatches, id)
	fnc(arg, at)
}

// InFlightBatches returns the number of armed, not-yet-completed batches
// (for leak tests).
func (c *Controller) InFlightBatches() int {
	return len(c.batches) - len(c.freeBatches)
}

// checkBatchArgs validates the shared SubmitRange/SubmitBatch contract.
func checkBatchArgs(bytes int, extra sim.Tick, fnc func(int32, sim.Tick)) {
	if fnc == nil {
		panic("dram: batch submit without completion callback")
	}
	if bytes <= 0 || bytes%accessBytes != 0 {
		panic(fmt.Sprintf("dram: batch size %d not a positive multiple of %d", bytes, accessBytes))
	}
	if extra < 0 {
		panic(fmt.Sprintf("dram: negative batch extra latency %d", extra))
	}
}

// SubmitRange queues bytes/64 line requests covering [addr, addr+bytes) as
// one batched operation. fnc(arg, at) fires exactly once, extraNS after the
// batch's last data beat, with that completion time; the whole batch costs
// a single engine event regardless of line count. fnc should be a value the
// caller stores once (a struct field), so submitting costs no allocation.
func (c *Controller) SubmitRange(addr uint64, bytes int, isWrite bool, extraNS sim.Tick, fnc func(int32, sim.Tick), arg int32) {
	checkBatchArgs(bytes, extraNS, fnc)
	lines := bytes / accessBytes
	c.enqueue(addr, lines, isWrite, c.allocBatch(lines, extraNS, fnc, arg))
}

// SubmitBatch queues vecBytes/64 line requests at each base address as one
// batched operation with a single completion counter: fnc(arg, at) fires
// once, extraNS after the last line of the last vector leaves the data bus.
// It is the bag-granular entry point — one call covers every row vector of
// an SLS bag with zero allocations. addrs is not retained.
func (c *Controller) SubmitBatch(addrs []uint64, vecBytes int, isWrite bool, extraNS sim.Tick, fnc func(int32, sim.Tick), arg int32) {
	checkBatchArgs(vecBytes, extraNS, fnc)
	if len(addrs) == 0 {
		panic("dram: SubmitBatch with no addresses")
	}
	lines := vecBytes / accessBytes
	batch := c.allocBatch(len(addrs)*lines, extraNS, fnc, arg)
	for _, addr := range addrs {
		c.enqueue(addr, lines, isWrite, batch)
	}
}
