package dram

import (
	"fmt"

	"pifsrec/internal/sim"
)

// request is one queued run: n consecutive 64 B lines of one batch that
// share a channel, bank and row, decoded once at submit. The channel's ring
// holds runs by value, and the scheduler treats a run's lines as one
// FR-FCFS candidate that issues one line at a time: they are
// indistinguishable to it, so the first line of a run is the one a
// per-line scan would pick. A request carries only what the scheduler
// reads, in 24 bytes; Validate bounds the geometry fields the narrow types
// hold.
type request struct {
	submit sim.Tick
	batch  int32
	row    int32
	n      int32  // lines left in the run
	bank   uint16 // flattened rank/group/bank index into channel.banks
	rank   uint8
	write  bool
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
// bank array, FR-FCFS scheduler, run queue, and statistics. Every
// channel runs on the controller's engine, and the component that owns the
// controller folds its CostWeight into its own, so a node's placement weight
// tracks its channel count. It is not safe for concurrent use; all
// interaction happens on the owning group's engine.
type Controller struct {
	eng   *sim.Engine
	geo   Geometry
	dec   lineDecoder
	tim   Timing
	chans []*channel

	// Pooled batch slots (a batch may span channels); recycle via free list.
	batches     []batchState
	freeBatches []int32
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
	c := &Controller{eng: eng, geo: geo, dec: newLineDecoder(geo), tim: tim}
	c.chans = make([]*channel, geo.Channels)
	for i := range c.chans {
		c.chans[i] = newChannel(c)
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

// CostWeight is the controller's static placement weight: each channel's
// peak bandwidth in GB/s over 16, so a node's weight grows with its channel
// count and channel speed.
func (c *Controller) CostWeight() float64 {
	w := 0.0
	for range c.chans {
		w += c.tim.PeakBandwidthGBs() / 16
	}
	return w
}

// enqueue queues lines 64 B lines of batch starting at addr. The lines that
// begin in one interleave chunk share a channel, bank and row (Validate
// makes InterleaveBytes divide RowBytes), so each chunk is decoded once and
// queued as one run.
func (c *Controller) enqueue(addr uint64, lines int, write bool, batch int32) {
	now := c.eng.Now()
	for lines > 0 {
		idx, bank, rank, row := c.dec.decode(addr)
		n := min(c.dec.chunkLines(addr), lines)
		ch := c.chans[idx]
		ch.q.push(request{submit: now, batch: batch, row: row, n: int32(n), bank: bank, rank: rank, write: write})
		ch.kick(now)
		addr += uint64(n) * accessBytes
		lines -= n
	}
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

// channel is one self-contained bank loop: its own run queue, scheduler
// state, and statistics. The only controller-level state it touches is the
// shared batch table (a batch's lines may span channels), so a channel
// always runs in its controller's placement group.
type channel struct {
	ctl     *Controller
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

	stats Stats

	// precomputed timing in ns
	cl, rcd, rp, ras, rc, wr, rtp, cwl, rrd, burst sim.Tick
	refi, rfc                                      sim.Tick
}

func newChannel(c *Controller) *channel {
	t := c.tim
	ch := &channel{
		ctl:     c,
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

func (ch *channel) kick(at sim.Tick) {
	if ch.kicked {
		return
	}
	ch.kicked = true
	ch.ctl.eng.At(at, ch.serviceThunk)
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
// which is where bank-level parallelism comes from. Each pass issues one
// line of the picked run, which leaves the queue with its last line;
// completion is accounted on the line's batch.
func (ch *channel) service() {
	now := ch.ctl.eng.Now()
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
		rq := ch.q.at(pick)

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
		if rq.n--; rq.n == 0 {
			ch.q.removeAt(pick)
		}
		ch.ctl.lineIssued(batch, doneAt)
	}
}

// starveNS caps how long FR-FCFS may reorder past the oldest request; once
// the head of the queue has waited this long it is served unconditionally.
const starveNS = 200

// pick selects the next run: the first row hit within the FR-FCFS window of
// frWindow lines, otherwise the run whose bank is ready earliest (FIFO on
// ties). The head of the queue is served unconditionally once it has aged
// past starveNS, so row-hit streams cannot starve other banks. A run is in
// the window when its first line is, and its other lines would score the
// same.
func (ch *channel) pick(now sim.Tick) int {
	head := ch.q.at(0)
	b := &ch.banks[head.bank]
	if now-head.submit > starveNS || b.openRow == int(head.row) {
		return 0
	}
	best, bestReady := 0, max64(b.actReadyAt, now)
	for i, lines := 1, int(head.n); i < ch.q.n && lines < frWindow; i++ {
		rq := ch.q.at(i)
		b := &ch.banks[rq.bank]
		if b.openRow == int(rq.row) {
			return i // row hit: take the oldest hit immediately
		}
		if ready := max64(b.actReadyAt, now); ready < bestReady {
			best, bestReady = i, ready
		}
		lines += int(rq.n)
	}
	return best
}

// issue runs the bank state machine for one request starting no earlier
// than now and returns the column command time and data completion time.
func (ch *channel) issue(r *request, now sim.Tick) (cmdAt, doneAt sim.Tick) {
	b := &ch.banks[r.bank]
	st := &ch.stats

	if row := int(r.row); b.openRow != row {
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
		if ra := ch.rankAct[r.rank]; ra > t {
			t = ra
		}
		actAt := ch.refreshAdjust(t)
		b.openRow = row
		b.colReadyAt = actAt + ch.rcd
		b.preReadyAt = actAt + ch.ras
		b.actReadyAt = actAt + ch.rc
		ch.rankAct[r.rank] = actAt + ch.rrd
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
