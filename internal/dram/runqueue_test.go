package dram

import (
	"fmt"
	"testing"

	"pifsrec/internal/sim"
)

// lineController is the per-line scheduler the run queue replaced, kept as
// the reference the differential test holds Controller to. Every 64 B line
// is decoded and queued on its own, and FR-FCFS scans up to frWindow lines.
// Its batch slots are a Controller's, whose own channels stay idle.
type lineController struct {
	ctl   *Controller
	chans []*lineChannel
}

func newLineController(eng *sim.Engine, geo Geometry, tim Timing) *lineController {
	r := &lineController{ctl: NewController(eng, geo, tim)}
	for range geo.Channels {
		r.chans = append(r.chans, newLineChannel(r.ctl))
	}
	return r
}

func (r *lineController) SubmitRange(addr uint64, bytes int, write bool, extra sim.Tick, fnc func(int32, sim.Tick), arg int32) {
	r.SubmitBatch([]uint64{addr}, bytes, write, extra, fnc, arg)
}

func (r *lineController) SubmitBatch(addrs []uint64, vecBytes int, write bool, extra sim.Tick, fnc func(int32, sim.Tick), arg int32) {
	checkBatchArgs(vecBytes, extra, fnc)
	lines := vecBytes / accessBytes
	batch := r.ctl.allocBatch(len(addrs)*lines, extra, fnc, arg)
	for _, addr := range addrs {
		for l := 0; l < lines; l++ {
			idx, bank, rank, row := r.ctl.dec.decode(addr + uint64(l*accessBytes))
			ch := r.chans[idx]
			ch.q = append(ch.q, request{submit: r.ctl.eng.Now(), batch: batch, row: row, n: 1, bank: bank, rank: rank, write: write})
			ch.kick(r.ctl.eng.Now())
		}
	}
}

func (r *lineController) SetChannelOffline(idx int, until sim.Tick) {
	ch := r.chans[idx]
	if until > ch.offlineUntil {
		ch.offlineUntil = until
	}
	if len(ch.q) > 0 {
		ch.kick(until)
	}
}

func (r *lineController) Stats() Stats {
	var s Stats
	for _, ch := range r.chans {
		s.Reads += ch.stats.Reads
		s.Writes += ch.stats.Writes
		s.RowHits += ch.stats.RowHits
		s.RowMisses += ch.stats.RowMisses
		s.BytesMoved += ch.stats.BytesMoved
		s.QueueDelay += ch.stats.QueueDelay
	}
	return s
}

// lineChannel is one channel of the reference: a FIFO of single lines.
type lineChannel struct {
	ctl          *Controller
	banks        []bank
	rankAct      []sim.Tick
	busFree      sim.Tick
	q            []request
	kicked       bool
	offlineUntil sim.Tick
	serviceThunk func()
	stats        Stats

	cl, rcd, rp, ras, rc, wr, rtp, cwl, rrd, burst sim.Tick
	refi, rfc                                      sim.Tick
}

func newLineChannel(c *Controller) *lineChannel {
	t := c.tim
	ch := &lineChannel{
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

func (ch *lineChannel) kick(at sim.Tick) {
	if ch.kicked {
		return
	}
	ch.kicked = true
	ch.ctl.eng.At(at, ch.serviceThunk)
}

func (ch *lineChannel) refreshAdjust(t sim.Tick) sim.Tick {
	if ch.refi == 0 {
		return t
	}
	pos := t % ch.refi
	if pos >= ch.refi-ch.rfc {
		return t + (ch.refi - pos)
	}
	return t
}

func (ch *lineChannel) service() {
	now := ch.ctl.eng.Now()
	if ch.offlineUntil > now {
		ch.kick(ch.offlineUntil)
		return
	}
	for len(ch.q) > 0 {
		if ch.busFree > now+sim.Tick(busAhead)*ch.burst {
			ch.kick(ch.busFree - sim.Tick(busAhead)*ch.burst)
			return
		}
		i := ch.pick(now)
		rq := ch.q[i]
		// Drop line i: shift the i lines in front of it back by one.
		copy(ch.q[1:i+1], ch.q[:i])
		ch.q = ch.q[1:]

		cmdAt, doneAt := ch.issue(&rq, now)
		st := &ch.stats
		st.BytesMoved += accessBytes
		st.QueueDelay += cmdAt - rq.submit
		if rq.write {
			st.Writes++
		} else {
			st.Reads++
		}
		ch.ctl.lineIssued(rq.batch, doneAt)
	}
}

func (ch *lineChannel) pick(now sim.Tick) int {
	if now-ch.q[0].submit > starveNS {
		return 0
	}
	limit := min(len(ch.q), frWindow)
	best := 0
	bestReady := sim.MaxTick
	for i := 0; i < limit; i++ {
		rq := &ch.q[i]
		b := &ch.banks[rq.bank]
		if b.openRow == int(rq.row) {
			return i
		}
		ready := max64(b.actReadyAt, now)
		if ready < bestReady {
			bestReady = ready
			best = i
		}
	}
	return best
}

func (ch *lineChannel) issue(r *request, now sim.Tick) (cmdAt, doneAt sim.Tick) {
	b := &ch.banks[r.bank]
	st := &ch.stats
	if row := int(r.row); b.openRow != row {
		st.RowMisses++
		t := now
		if b.openRow >= 0 {
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

// dramPort is what the differential traffic drives: Controller and its
// per-line reference.
type dramPort interface {
	SubmitRange(addr uint64, bytes int, write bool, extra sim.Tick, fnc func(int32, sim.Tick), arg int32)
	SubmitBatch(addrs []uint64, vecBytes int, write bool, extra sim.Tick, fnc func(int32, sim.Tick), arg int32)
	SetChannelOffline(idx int, until sim.Tick)
	Stats() Stats
}

type completion struct {
	arg int32
	at  sim.Tick
}

// driveTraffic runs one seeded traffic script on p and returns its
// completions in the order they fired. The script draws from its own RNG,
// so two ports that complete alike see the same script. Over 30 refresh
// periods it submits bursts of SubmitRange and SubmitBatch calls: vectors of
// 64 B to 4 KiB at vector-aligned, line-aligned and unaligned addresses, at
// interleave-chunk and row edges, from a small hot set shared across
// batches, and repeated within one batch; reads and writes, with and
// without extra latency. A quarter of the completions submit again, and
// channels go offline for short windows. After that, single lines arrive
// at the start of refresh windows and a few ticks around them, so an
// adjustment that is off by one at a period edge changes a completion.
func driveTraffic(eng *sim.Engine, p dramPort, geo Geometry, tim Timing, seed uint64) []completion {
	rng := sim.NewRNG(seed)
	refi, rfc, rcd := tim.ns(tim.REFI), tim.ns(tim.RFC), tim.ns(tim.RCD)
	il := geo.interleave()
	capacity := uint64(geo.Capacity())
	hot := make([]uint64, 16)
	for i := range hot {
		hot[i] = rng.Uint64() % capacity &^ uint64(rng.Intn(2)*63)
	}
	var log []completion
	var next int32
	var submit func()
	done := func(arg int32, at sim.Tick) {
		log = append(log, completion{arg, at})
		if rng.Intn(4) == 0 {
			submit()
		}
	}
	sizes := []int{64, 128, 192, 256, 512, 512, 512, 1024, 2048, 4096}
	addr := func(vec int, prev []uint64) uint64 {
		switch r := rng.Intn(10); {
		case r < 3:
			return hot[rng.Intn(len(hot))]
		case r < 5 && len(prev) > 0:
			return prev[rng.Intn(len(prev))]
		case r < 7: // ending on, or crossing, a chunk or row edge
			edge := il
			if rng.Intn(2) == 0 {
				edge = uint64(geo.RowBytes) * uint64(geo.Channels)
			}
			base := (rng.Uint64() % (capacity / edge)) * edge
			return base - uint64(rng.Intn(vec/accessBytes+1)*accessBytes) - uint64(rng.Intn(2)*32)
		default:
			a := rng.Uint64() % capacity
			switch rng.Intn(3) {
			case 0:
				return a &^ uint64(vec-1)
			case 1:
				return a &^ (accessBytes - 1)
			}
			return a
		}
	}
	var addrs []uint64
	submit = func() {
		vec := sizes[rng.Intn(len(sizes))]
		if rng.Intn(4) == 0 {
			vec = accessBytes * (1 + rng.Intn(64))
		}
		write := rng.Intn(4) == 0
		extra := sim.Tick(0)
		if rng.Intn(2) == 0 {
			extra = sim.Tick(rng.Intn(200))
		}
		arg := next
		next++
		if rng.Intn(3) == 0 {
			p.SubmitRange(addr(vec, nil), vec, write, extra, done, arg)
			return
		}
		addrs = addrs[:0]
		for n := 1 + rng.Intn(24); len(addrs) < n; {
			addrs = append(addrs, addr(vec, addrs))
		}
		p.SubmitBatch(addrs, vec, write, extra, done, arg)
	}

	const periods = 30
	horizon := periods * refi
	for range periods * geo.Channels {
		at := sim.Tick(rng.Int63n(int64(horizon)))
		burst := 1 + rng.Intn(6)
		eng.At(at, func() {
			for range burst {
				submit()
			}
		})
	}
	for range periods * 2 {
		at := sim.Tick(rng.Int63n(int64(horizon)))
		ch, until := rng.Intn(geo.Channels), at+sim.Tick(rng.Intn(3000))
		eng.At(at, func() { p.SetChannelOffline(ch, until) })
	}
	// Probes, once the traffic has drained: one line each, at a refresh
	// window's start, a tick or two either side, or tRCD before it, so an
	// activate or a column command lands on the window's first tick.
	offsets := []sim.Tick{-1, 0, 1, -rcd - 1, -rcd, -rcd + 1, 2, -2}
	for k := range periods * 2 {
		start := (periods+10+sim.Tick(k))*refi - rfc
		at := start + offsets[k%len(offsets)]
		a := rng.Uint64() % capacity &^ (accessBytes - 1)
		eng.At(at, func() {
			p.SubmitRange(a, accessBytes, false, 0, done, next)
			next++
		})
	}
	eng.Run()
	return log
}

// runQueueGeometries are the geometries the run queue is held to the
// per-line reference on: Table II, narrowed to two and one channels, and
// the engine's host, RecNMP and device shapes (engine.localGeometry,
// nmpGeometry and deviceGeometry).
var runQueueGeometries = []struct {
	name string
	geo  Geometry
	tim  Timing
}{
	{"table2", Table2Geometry(), DDR5_4800()},
	{"table2-2ch", Geometry{Channels: 2, Ranks: 2, BankGroups: 4, Banks: 4, Rows: 1 << 16, RowBytes: 8192}, DDR4_3200()},
	{"one-channel", Geometry{Channels: 1, Ranks: 2, BankGroups: 4, Banks: 4, Rows: 1 << 16, RowBytes: 8192}, DDR5_4800()},
	{"host-12ch", hostGeometry(), DDR5_4800()},
	{"nmp-24ch", Geometry{Channels: 24, Ranks: 2, BankGroups: 4, Banks: 4,
		Rows: 1 << 12, RowBytes: 8192, InterleaveBytes: 4096}, DDR5_4800()},
	{"device-4ch", Geometry{Channels: 4, Ranks: 2, BankGroups: 4, Banks: 4,
		Rows: 1 << 11, RowBytes: 8192, InterleaveBytes: 4096}, DDR4_3200()},
}

// TestRunQueueMatchesLineReference holds the run queue to the per-line
// scheduler it replaced: the same seeded traffic, applied to each on its own
// engine, must complete every batch at the same time and in the same order,
// leave field-for-field equal statistics, and fire the same number of
// events.
func TestRunQueueMatchesLineReference(t *testing.T) {
	for _, tc := range runQueueGeometries {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				refEng := sim.NewEngine()
				ref := newLineController(refEng, tc.geo, tc.tim)
				want := driveTraffic(refEng, ref, tc.geo, tc.tim, seed)
				eng, c := testController(tc.geo, tc.tim)
				got := driveTraffic(eng, c, tc.geo, tc.tim, seed)

				for i := range min(len(got), len(want)) {
					if got[i] != want[i] {
						t.Fatalf("completion %d of %d: (arg %d, at %d), reference (arg %d, at %d)",
							i, len(want), got[i].arg, got[i].at, want[i].arg, want[i].at)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%d completions, reference %d", len(got), len(want))
				}
				if gs, ws := c.Stats(), ref.Stats(); gs != ws {
					t.Fatalf("stats diverged:\nrun queue %+v\nreference %+v", gs, ws)
				}
				if eng.Fired() != refEng.Fired() {
					t.Fatalf("fired %d events, reference %d", eng.Fired(), refEng.Fired())
				}
				if st := c.Stats(); st.RowHits == 0 || st.Writes == 0 || len(got) < 100 {
					t.Fatalf("traffic too thin to compare: %d completions, %+v", len(got), st)
				}
			})
		}
	}
}
