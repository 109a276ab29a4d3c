package dram

import (
	"fmt"

	"pifsrec/internal/sim"
)

// request is one arena-resident line access. Requests are value-typed and
// referenced by index: the per-channel queues hold ids, and slots recycle
// through a free list the moment the line's column command issues, so the
// submit→complete path performs no heap allocation in steady state.
type request struct {
	addr   uint64
	write  bool
	submit sim.Tick
	batch  int32
	loc    Loc
}

// Stats aggregates controller activity across all channels.
type Stats struct {
	Reads      int64
	Writes     int64
	RowHits    int64
	RowMisses  int64
	BytesMoved int64
	// QueueDelay accumulates ticks requests spent waiting before their
	// column command issued; divide by Reads+Writes for the mean.
	QueueDelay int64
}

// MeanQueueDelayNS returns the mean per-request queueing delay in
// nanoseconds (time from submit to column-command issue), or 0 when no
// requests completed.
func (s Stats) MeanQueueDelayNS() float64 {
	n := s.Reads + s.Writes
	if n == 0 {
		return 0
	}
	return float64(s.QueueDelay) / float64(n)
}

// Controller models one memory node: a set of channels, each with its own
// bank array, FR-FCFS scheduler, request arena, and statistics — the
// channel loop is fully self-contained per bank, which is what lets each
// channel surface as a separate placement-cost component (ChannelBank) and
// keeps a future per-bank engine split a wiring change rather than a
// rewrite. It is not safe for concurrent use; all interaction happens on
// the owning group's engine.
type Controller struct {
	eng   *sim.Engine
	geo   Geometry
	tim   Timing
	chans []*channel
	group int32

	// Pooled batch slots (a batch may span channels); recycle via free list.
	batches     []batchState
	freeBatches []int32

	banks []*ChannelBank

	// split is non-nil in split-bank mode (see split.go): channels live on
	// their own placement groups and submits/completions ride the mailbox.
	split *splitCtl
}

// NewController builds a controller. It panics on invalid configuration:
// configurations are produced by code, not users, so an invalid one is a
// programming error.
func NewController(eng *sim.Engine, geo Geometry, tim Timing) *Controller {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if err := tim.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{eng: eng, geo: geo, tim: tim}
	c.chans = make([]*channel, geo.Channels)
	for i := range c.chans {
		c.chans[i] = newChannel(c, i)
	}
	return c
}

// Geometry returns the node organization.
func (c *Controller) Geometry() Geometry { return c.geo }

// Timing returns the device timing set.
func (c *Controller) Timing() Timing { return c.tim }

// Stats aggregates the per-channel statistics into the controller view.
func (c *Controller) Stats() Stats {
	var s Stats
	for _, ch := range c.chans {
		s.Reads += ch.stats.Reads
		s.Writes += ch.stats.Writes
		s.RowHits += ch.stats.RowHits
		s.RowMisses += ch.stats.RowMisses
		s.BytesMoved += ch.stats.BytesMoved
		s.QueueDelay += ch.stats.QueueDelay
	}
	return s
}

// SetGroup records the placement group the controller's channel banks
// report (sim.Component); call at construction, before Banks.
func (c *Controller) SetGroup(g int32) { c.group = g }

// Banks returns the controller's channels as placement-cost components, one
// per channel bank, built on first use.
func (c *Controller) Banks() []*ChannelBank {
	if c.banks == nil {
		c.banks = make([]*ChannelBank, len(c.chans))
		for i, ch := range c.chans {
			c.banks[i] = &ChannelBank{ch: ch}
		}
	}
	return c.banks
}

// ChannelBank exposes one DRAM channel as a sim.Component for the
// cost-balanced placement: banks never receive mailbox messages (the
// channel loop is driven by its owner through shared state, so a bank
// always co-locates with its controller's group), but each contributes its
// static weight to the group seed and reports its measured service load, so
// the bin-packing sees a 12-channel socket as three times the cost of a
// 4-channel expander instead of dealing groups round-robin.
type ChannelBank struct {
	sim.NoWindowHooks
	ch *channel
}

// Channel returns the bank's channel index within its controller.
func (b *ChannelBank) Channel() int { return b.ch.idx }

// ComponentGroup returns the owning controller's placement group — or the
// bank's own group in split mode, where the bank is a real endpoint.
func (b *ChannelBank) ComponentGroup() int32 {
	if b.ch.sp != nil {
		return b.ch.sp.group
	}
	return b.ch.ctl.group
}

// CostWeight scales with the channel's peak bandwidth, so DDR5 banks weigh
// more than DDR4 banks and a group's seed tracks its real service capacity.
func (b *ChannelBank) CostWeight() float64 {
	return b.ch.ctl.tim.PeakBandwidthGBs() / 16
}

// HandleMsg consumes owner->bank line batches in split mode; outside split
// mode banks are cost components, not endpoints, and it panics.
func (b *ChannelBank) HandleMsg(env sim.Envelope) {
	if b.ch.sp != nil && env.P.Kind == KindBankLines {
		b.ch.sp.handleLines(b.ch, env)
		return
	}
	panic(fmt.Sprintf("dram: channel bank %d got message kind %#x", b.ch.idx, env.P.Kind))
}

// Stats returns this bank's own counters.
func (b *ChannelBank) Stats() Stats { return b.ch.stats }

// ArenaSize returns the total request arena capacity across channels (for
// reuse/leak tests).
func (c *Controller) ArenaSize() int {
	n := 0
	for _, ch := range c.chans {
		n += len(ch.reqs)
	}
	return n
}

// QueuedRequests returns the number of lines waiting in channel queues.
func (c *Controller) QueuedRequests() int {
	n := 0
	for _, ch := range c.chans {
		n += ch.q.n
	}
	return n
}

// enqueueLine places one line request of a batch into its channel's queue.
// Allocation is channel-local: each bank owns its arena.
func (c *Controller) enqueueLine(addr uint64, write bool, batch int32) {
	loc := c.geo.Map(addr)
	ch := c.chans[loc.Channel]
	id := ch.allocReq()
	rq := &ch.reqs[id]
	rq.addr = addr
	rq.write = write
	rq.submit = c.eng.Now()
	rq.batch = batch
	rq.loc = loc
	ch.enqueue(id)
}

// SetChannelOffline parks channel idx until the given time (fault
// injection): its service loop defers itself past the window, so in-flight
// queue contents stall rather than drop. Extends, never shortens, an open
// window. Panics on an out-of-range channel index.
func (c *Controller) SetChannelOffline(idx int, until sim.Tick) {
	if idx < 0 || idx >= len(c.chans) {
		panic(fmt.Sprintf("dram: channel %d out of range [0,%d)", idx, len(c.chans)))
	}
	ch := c.chans[idx]
	if until > ch.offlineUntil {
		ch.offlineUntil = until
	}
	if ch.q.n > 0 {
		ch.kick(until)
	}
}

// PeakBandwidthGBs returns the node's aggregate theoretical bandwidth.
func (c *Controller) PeakBandwidthGBs() float64 {
	return c.tim.PeakBandwidthGBs() * float64(c.geo.Channels)
}

// frWindow bounds how deep FR-FCFS looks for row hits; beyond this the
// scheduler falls back to FIFO order so old requests cannot starve.
const frWindow = 16

// busAhead bounds how far command issue may run ahead of the data bus, in
// burst slots. It provides back-pressure so queued traffic does not schedule
// unboundedly far into the future while leaving enough lookahead to overlap
// activations on other banks with in-flight transfers.
const busAhead = 16

type bank struct {
	openRow    int // -1 when closed
	colReadyAt sim.Tick
	preReadyAt sim.Tick
	actReadyAt sim.Tick
}

// channel is one self-contained bank loop: its own engine handle, request
// arena, queue, scheduler state, and statistics. The only controller-level
// state it touches is the shared batch table (a batch's lines may span
// channels), so a bank always runs in its controller's placement group.
type channel struct {
	ctl     *Controller
	eng     *sim.Engine // the owning group's engine (per-bank handle)
	idx     int
	banks   []bank
	rankAct []sim.Tick // per-rank earliest next activate (tRRD)
	busFree sim.Tick
	q       reqRing
	kicked  bool
	// offlineUntil parks the channel during a fault window: service() defers
	// itself to the window's close, so queued and arriving requests wait out
	// the outage instead of being lost.
	offlineUntil sim.Tick
	// serviceThunk is the one closure this channel ever schedules; reusing
	// it keeps the kick path allocation-free.
	serviceThunk func()

	// sp is non-nil in split-bank mode: this channel lives on its own
	// placement group and reports completions through the mailbox.
	sp *splitChan

	// Pooled channel-local request arena with free-list recycling.
	reqs     []request
	freeReqs []int32

	stats Stats

	// precomputed timing in ns
	cl, rcd, rp, ras, rc, wr, rtp, cwl, rrd, burst sim.Tick
	refi, rfc                                      sim.Tick
}

func newChannel(c *Controller, idx int) *channel {
	t := c.tim
	ch := &channel{
		ctl:     c,
		eng:     c.eng,
		idx:     idx,
		banks:   make([]bank, c.geo.TotalBanks()),
		rankAct: make([]sim.Tick, c.geo.Ranks),
		cl:      t.ns(t.CL), rcd: t.ns(t.RCD), rp: t.ns(t.RP),
		ras: t.ns(t.RAS), rc: t.ns(t.RC), wr: t.ns(t.WR),
		rtp: t.ns(t.RTP), cwl: t.ns(t.CWL), rrd: t.ns(t.RRD),
		burst: t.BurstNS(),
		refi:  t.ns(t.REFI), rfc: t.ns(t.RFC),
	}
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	ch.serviceThunk = func() {
		ch.kicked = false
		ch.service()
	}
	return ch
}

// allocReq returns a recycled (or freshly grown) arena slot of this channel.
func (ch *channel) allocReq() int32 {
	if n := len(ch.freeReqs); n > 0 {
		id := ch.freeReqs[n-1]
		ch.freeReqs = ch.freeReqs[:n-1]
		return id
	}
	ch.reqs = append(ch.reqs, request{})
	return int32(len(ch.reqs) - 1)
}

func (ch *channel) enqueue(id int32) {
	ch.q.push(id)
	ch.kick(ch.eng.Now())
}

func (ch *channel) kick(at sim.Tick) {
	if ch.kicked {
		return
	}
	ch.kicked = true
	ch.eng.At(at, ch.serviceThunk)
}

// refreshAdjust pushes t past any refresh window it falls into. Refresh is
// modelled as the channel being unavailable for tRFC at the *end* of each
// tREFI interval — an analytic stand-in for staggered per-rank refresh that
// costs the same bandwidth fraction (tRFC/tREFI) while keeping time zero
// serviceable.
func (ch *channel) refreshAdjust(t sim.Tick) sim.Tick {
	if ch.refi == 0 {
		return t
	}
	pos := t % ch.refi
	if pos >= ch.refi-ch.rfc {
		return t + (ch.refi - pos)
	}
	return t
}

// service issues column commands until the data bus runs far enough ahead,
// then reschedules itself. Issuing back-to-back (rather than one command
// per bus slot) lets activations on one bank overlap transfers from others,
// which is where bank-level parallelism comes from. Each issued line's arena
// slot is recycled immediately; completion is accounted on the line's batch.
func (ch *channel) service() {
	now := ch.eng.Now()
	if ch.offlineUntil > now {
		ch.kick(ch.offlineUntil)
		return
	}
	for ch.q.n > 0 {
		// Back-pressure: when the data bus is booked out past the lookahead
		// window, resume once it drains back inside it.
		if ch.busFree > now+sim.Tick(busAhead)*ch.burst {
			ch.kick(ch.busFree - sim.Tick(busAhead)*ch.burst)
			return
		}

		pick := ch.pick(now)
		id := ch.q.at(pick)
		ch.q.removeAt(pick)
		rq := &ch.reqs[id]

		cmdAt, doneAt := ch.issue(rq, now)
		st := &ch.stats
		st.BytesMoved += accessBytes
		st.QueueDelay += cmdAt - rq.submit
		if rq.write {
			st.Writes++
		} else {
			st.Reads++
		}
		batch := rq.batch
		ch.freeReqs = append(ch.freeReqs, id)
		if ch.sp != nil {
			ch.sp.lineIssued(ch, batch, doneAt)
		} else {
			ch.ctl.lineIssued(batch, doneAt)
		}
	}
}

// starveNS caps how long FR-FCFS may reorder past the oldest request; once
// the head of the queue has waited this long it is served unconditionally.
const starveNS = 200

// pick selects the next request: the first row hit within the FR-FCFS
// window, otherwise the request whose bank is ready earliest (FIFO on ties).
// The head of the queue is served unconditionally once it has aged past
// starveNS, so row-hit streams cannot starve other banks.
func (ch *channel) pick(now sim.Tick) int {
	reqs := ch.reqs
	if now-reqs[ch.q.at(0)].submit > starveNS {
		return 0
	}
	limit := ch.q.n
	if limit > frWindow {
		limit = frWindow
	}
	best := 0
	bestReady := sim.MaxTick
	for i := 0; i < limit; i++ {
		rq := &reqs[ch.q.at(i)]
		b := &ch.banks[ch.ctl.geo.bankIndex(rq.loc)]
		if b.openRow == rq.loc.Row {
			return i // row hit: take the oldest hit immediately
		}
		ready := b.actReadyAt
		if ready < now {
			ready = now
		}
		if ready < bestReady {
			bestReady = ready
			best = i
		}
	}
	return best
}

// issue runs the bank state machine for one request starting no earlier
// than now and returns the column command time and data completion time.
func (ch *channel) issue(r *request, now sim.Tick) (cmdAt, doneAt sim.Tick) {
	g := ch.ctl.geo
	b := &ch.banks[g.bankIndex(r.loc)]
	st := &ch.stats

	if b.openRow != r.loc.Row {
		st.RowMisses++
		t := now
		if b.openRow >= 0 {
			// Precharge the open row first.
			preAt := max64(t, b.preReadyAt)
			t = preAt + ch.rp
			if t < b.actReadyAt {
				t = b.actReadyAt
			}
		} else if b.actReadyAt > t {
			t = b.actReadyAt
		}
		if ra := ch.rankAct[r.loc.Rank]; ra > t {
			t = ra
		}
		actAt := ch.refreshAdjust(t)
		b.openRow = r.loc.Row
		b.colReadyAt = actAt + ch.rcd
		b.preReadyAt = actAt + ch.ras
		b.actReadyAt = actAt + ch.rc
		ch.rankAct[r.loc.Rank] = actAt + ch.rrd
	} else {
		st.RowHits++
	}

	cmdAt = max64(now, b.colReadyAt)
	cmdAt = ch.refreshAdjust(cmdAt)

	if r.write {
		dataAt := max64(cmdAt+ch.cwl, ch.busFree)
		doneAt = dataAt + ch.burst
		ch.busFree = doneAt
		if p := doneAt + ch.wr; p > b.preReadyAt {
			b.preReadyAt = p
		}
	} else {
		dataAt := max64(cmdAt+ch.cl, ch.busFree)
		doneAt = dataAt + ch.burst
		ch.busFree = doneAt
		if p := cmdAt + ch.rtp; p > b.preReadyAt {
			b.preReadyAt = p
		}
	}
	b.colReadyAt = cmdAt + ch.burst
	return cmdAt, doneAt
}

func max64(a, b sim.Tick) sim.Tick {
	if a > b {
		return a
	}
	return b
}

// String describes the controller configuration.
func (c *Controller) String() string {
	return fmt.Sprintf("dram.Controller(%s, %d ch × %d ranks, %.1f GB/s peak)",
		c.tim.Name, c.geo.Channels, c.geo.Ranks, c.PeakBandwidthGBs())
}
