// Event-driven numasim: the characterization platform rebuilt as sim
// Components on the sharded conservative-time-window engine. Where the
// closed form (numasim.go) combines tier service rates algebraically, this
// model runs the machinery: a thread-aggregate generator paces request
// quanta into memory-node components over mailbox messages, the remote
// socket's traffic crosses an explicit interconnect hop, a migration daemon
// places the working set across tiers and gates batch-threading's
// bulk-synchronous phases, and bandwidth is measured from served bytes over
// simulated time. Queueing, phase structure, and access latency are
// explicit; the nodes' effective service rates reuse the closed form's
// partial-population/congestion/MLP terms (resolvePlan), so the two models
// agree within the event model's latency tails and barrier handshakes —
// the parity tests pin the deltas.
package numasim

import (
	"fmt"
	"math"

	"pifsrec/internal/sim"
)

// Model selects the numasim implementation behind RunModel.
type Model string

// The two implementations.
const (
	// ModelAnalytic is the closed-form fast path (numasim.Run).
	ModelAnalytic Model = "analytic"
	// ModelEvent is the event-driven component simulation (RunEvent).
	ModelEvent Model = "event"
)

// NumasimModels returns the selectable models.
func NumasimModels() []Model { return []Model{ModelAnalytic, ModelEvent} }

// SeedPlacements returns every placement the seed figures sweep.
func SeedPlacements() []Placement {
	return []Placement{AllLocal, RemoteSocket, CXLExpander, InterleaveCXL, CXLOnly}
}

// RunModel evaluates a workload under the chosen implementation. An empty
// model selects the analytic fast path.
func RunModel(m Model, p Platform, w Workload, place Placement) (Result, error) {
	switch m {
	case "", ModelAnalytic:
		return Run(p, w, place)
	case ModelEvent:
		return RunEvent(p, w, place)
	default:
		return Result{}, fmt.Errorf("numasim: unknown model %q (have %v)", m, NumasimModels())
	}
}

// Message kinds of the numasim fabric.
const (
	// kindQuantum requests service of one traffic quantum: U0=stream id,
	// A=quantum bytes.
	kindQuantum uint16 = 0x40
	// kindQuantumDone returns a served quantum to the generator.
	kindQuantumDone uint16 = 0x41
	// kindBatchDone notifies the daemon a bulk-synchronous batch finished.
	kindBatchDone uint16 = 0x42
	// kindBatchGo releases the next batch.
	kindBatchGo uint16 = 0x43
)

// Stream ids (Payload.U0).
const (
	streamLocal = iota
	streamSlow
)

// Event-model sizing: enough quanta for sub-percent rate resolution, enough
// batch length that latency tails stay small against phase times.
const (
	evBatches      = 6
	evQuantaPerStr = 96
	evBatchNS      = 50_000
)

// memNode is one memory tier: a rate-limited service pipe plus a fixed
// response latency. Service occupancy accumulates in float64 so rounding
// per quantum never drifts the achieved rate.
type memNode struct {
	sim.ComponentBase
	eng    *sim.Engine
	ob     *sim.Outbox
	port   int32
	rate   float64 // B/ns
	rspLat sim.Tick
	dstG   int32 // generator group/endpoint
	dstEp  int32
	freeF  float64
	served int64
}

func (n *memNode) HandleMsg(env sim.Envelope) {
	if env.P.Kind != kindQuantum {
		panic(fmt.Sprintf("numasim: node got message kind %#x", env.P.Kind))
	}
	st := float64(n.eng.Now())
	if n.freeF > st {
		st = n.freeF
	}
	n.freeF = st + float64(env.P.A)/n.rate
	n.served += int64(env.P.A)
	at := sim.Tick(math.Ceil(n.freeF)) + n.rspLat
	n.ob.Post(n.port, n.dstG, n.dstEp, at,
		sim.Payload{Kind: kindQuantumDone, U0: env.P.U0, A: env.P.A}, nil)
}

// interHop is the inter-socket interconnect: remote-socket traffic
// serializes through it before reaching the remote node (§III's xGMI-class
// links). Its raw rate upper-bounds the chain; the remote node's adjusted
// service rate is the usual bottleneck.
type interHop struct {
	sim.ComponentBase
	eng    *sim.Engine
	ob     *sim.Outbox
	port   int32
	rate   float64
	fwdLat sim.Tick
	dstG   int32 // slow node group/endpoint
	dstEp  int32
	freeF  float64
}

func (h *interHop) HandleMsg(env sim.Envelope) {
	if env.P.Kind != kindQuantum {
		panic(fmt.Sprintf("numasim: hop got message kind %#x", env.P.Kind))
	}
	st := float64(h.eng.Now())
	if h.freeF > st {
		st = h.freeF
	}
	h.freeF = st + float64(env.P.A)/h.rate
	at := sim.Tick(math.Ceil(h.freeF)) + h.fwdLat
	h.ob.Post(h.port, h.dstG, h.dstEp, at, env.P, nil)
}

// migrationDaemon owns working-set placement and batch release: it splits
// the footprint across tiers at startup (the slow share the OS placed on
// the remote socket or CXL device) and, under batch threading, gates each
// bulk-synchronous batch — the generator reports a finished batch and the
// daemon releases the next, modelling the runtime's barrier.
type migrationDaemon struct {
	sim.ComponentBase
	ob    *sim.Outbox
	port  int32
	lat   sim.Tick
	genG  int32
	genEp int32
}

// placeWorkingSet is the daemon's placement decision: the byte share each
// tier serves. It mirrors what resolvePlan derives from the Placement.
func (d *migrationDaemon) placeWorkingSet(tp tierPlan) (localShare, slowShare float64) {
	return 1 - tp.slowShare, tp.slowShare
}

func (d *migrationDaemon) HandleMsg(env sim.Envelope) {
	if env.P.Kind != kindBatchDone {
		panic(fmt.Sprintf("numasim: daemon got message kind %#x", env.P.Kind))
	}
	d.ob.Post(d.port, d.genG, d.genEp, env.At+d.lat, sim.Payload{Kind: kindBatchGo}, nil)
}

// generator is the thread aggregate: it paces quanta at the workload's
// offered rate into the tier nodes and tracks spans for the bandwidth
// measurement. Under batch threading it alternates a local and a slow phase
// per batch (bulk-synchronous); under table threading both streams run
// freely.
type generator struct {
	sim.ComponentBase
	eng *sim.Engine
	ob  *sim.Outbox

	batchMode bool
	ports     [2]int32 // per-stream send ports
	dstG      [2]int32 // stream destination (local node; slow node or hop)
	dstEp     [2]int32
	reqLat    [2]sim.Tick
	qBytes    [2]int64
	perBatch  [2]int     // quanta per batch per stream
	paceNS    [2]float64 // issue interval per stream
	pDaemon   int32
	daemonG   int32
	daemonEp  int32
	daemonLat sim.Tick

	issueF     [2]float64 // float issue clocks
	targetQ    [2]int     // quanta per phase (batch mode) or per run (table)
	phIssued   [2]int     // quanta issued in the current phase
	phReturned [2]int     // quanta returned in the current phase
	bytesDone  [2]int64
	firstIssue [2]sim.Tick
	lastRsp    [2]sim.Tick
	started    [2]bool

	batch int // current batch (batch mode)

	fnIssue [2]func()
}

// start kicks off the run at t=0.
func (g *generator) start() {
	if g.batchMode {
		g.startBatch()
		return
	}
	// Table threading: both streams issue continuously.
	for s := 0; s < 2; s++ {
		if g.perBatch[s] > 0 {
			g.beginStream(s)
		}
	}
}

// startBatch begins the next bulk-synchronous batch with its local phase
// (or the slow phase when the set is slow-only).
func (g *generator) startBatch() {
	if g.perBatch[streamLocal] > 0 {
		g.beginStream(streamLocal)
	} else {
		g.beginStream(streamSlow)
	}
}

// beginStream arms a stream's pacing clock and phase counters at the
// current time and issues its first quantum.
func (g *generator) beginStream(s int) {
	g.issueF[s] = float64(g.eng.Now())
	g.phIssued[s] = 0
	g.phReturned[s] = 0
	g.issueOne(s)
}

// issueOne posts one quantum and paces the next issue event until the
// phase's quantum budget is out.
func (g *generator) issueOne(s int) {
	now := g.eng.Now()
	if !g.started[s] {
		g.started[s] = true
		g.firstIssue[s] = now
	}
	g.ob.Post(g.ports[s], g.dstG[s], g.dstEp[s], now+g.reqLat[s],
		sim.Payload{Kind: kindQuantum, U0: int32(s), A: uint64(g.qBytes[s])}, nil)
	g.phIssued[s]++
	if g.phIssued[s] >= g.targetQ[s] {
		return
	}
	g.issueF[s] += g.paceNS[s]
	at := sim.Tick(math.Ceil(g.issueF[s]))
	if at < now {
		at = now
	}
	g.eng.At(at, g.fnIssue[s])
}

func (g *generator) HandleMsg(env sim.Envelope) {
	switch env.P.Kind {
	case kindQuantumDone:
		s := int(env.P.U0)
		g.phReturned[s]++
		g.bytesDone[s] += int64(env.P.A)
		if env.At > g.lastRsp[s] {
			g.lastRsp[s] = env.At
		}
		if !g.batchMode {
			return
		}
		if g.phReturned[s] < g.targetQ[s] {
			return
		}
		// Phase drained: the local phase hands over to the slow phase; the
		// slow phase (or a single-tier batch) completes the batch, and the
		// daemon releases the next one.
		if s == streamLocal && g.perBatch[streamSlow] > 0 {
			g.beginStream(streamSlow)
			return
		}
		g.batch++
		if g.batch >= evBatches {
			return
		}
		g.ob.Post(g.pDaemon, g.daemonG, g.daemonEp, env.At+g.daemonLat,
			sim.Payload{Kind: kindBatchDone}, nil)
	case kindBatchGo:
		g.startBatch()
	default:
		panic(fmt.Sprintf("numasim: generator got message kind %#x", env.P.Kind))
	}
}

// RunEvent evaluates a workload under a placement with the event-driven
// component model. It accepts exactly the configurations Run does and
// reports the same Result shape, measured rather than derived.
func RunEvent(p Platform, w Workload, place Placement) (Result, error) {
	tp, err := resolvePlan(p, w, place)
	if err != nil {
		return Result{}, err
	}

	latTick := func(f float64) sim.Tick {
		t := sim.Tick(f)
		if t < 1 {
			t = 1
		}
		return t
	}
	localHalf := latTick(p.LocalLatNS / 2)
	var slowReq, slowRsp, hopFwd sim.Tick
	if tp.slowShare > 0 {
		if tp.hasHop {
			slowReq = latTick(tp.slowLat / 4)
			hopFwd = latTick(tp.slowLat / 4)
		} else {
			slowReq = latTick(tp.slowLat / 2)
		}
		slowRsp = latTick(tp.slowLat / 2)
	}
	// The conservative window is the minimum cross-group message latency.
	window := localHalf
	for _, l := range []sim.Tick{slowReq, slowRsp, hopFwd} {
		if l > 0 && l < window {
			window = l
		}
	}

	// Groups: generator, daemon, local node, slow node, hop — one component
	// each, fixed construction order.
	se := sim.NewSharded(1, window)
	genG := se.NewGroup()
	daemonG := se.NewGroup()
	localG := se.NewGroup()
	slowG := se.NewGroup()
	hopG := se.NewGroup()

	daemon := &migrationDaemon{
		ComponentBase: sim.ComponentBase{Group: daemonG, Weight: 1},
		ob:            se.Outbox(int(daemonG)),
		lat:           window,
		genG:          genG,
	}
	gen := &generator{
		ComponentBase: sim.ComponentBase{Group: genG, Weight: float64(w.Threads)},
		eng:           se.Group(int(genG)),
		ob:            se.Outbox(int(genG)),
		batchMode:     w.Threading == BatchThreading,
		daemonG:       daemonG,
		daemonLat:     window,
	}
	local := &memNode{
		ComponentBase: sim.ComponentBase{Group: localG, Weight: p.LocalGBs / 16},
		eng:           se.Group(int(localG)),
		ob:            se.Outbox(int(localG)),
		rate:          p.LocalGBs,
		rspLat:        localHalf,
		dstG:          genG,
	}
	slow := &memNode{
		ComponentBase: sim.ComponentBase{Group: slowG, Weight: tp.slowServ / 16},
		eng:           se.Group(int(slowG)),
		ob:            se.Outbox(int(slowG)),
		rate:          math.Max(tp.slowServ, 1e-9),
		rspLat:        slowRsp,
		dstG:          genG,
	}
	hop := &interHop{
		ComponentBase: sim.ComponentBase{Group: hopG, Weight: 1},
		eng:           se.Group(int(hopG)),
		ob:            se.Outbox(int(hopG)),
		rate:          p.InterconnectGBs,
		fwdLat:        hopFwd,
		dstG:          slowG,
	}

	// Registration order fixes endpoints: gen, daemon, local, slow, hop.
	genEp := se.Register(gen)
	daemonEp := se.Register(daemon)
	localEp := se.Register(local)
	slowEp := se.Register(slow)
	hopEp := se.Register(hop)
	daemon.genEp = genEp
	gen.daemonEp = daemonEp
	local.dstEp = genEp
	slow.dstEp = genEp
	hop.dstEp = slowEp

	// The daemon's placement pass splits the batch bytes across tiers.
	localShare, slowShare := daemon.placeWorkingSet(tp)
	batchBytes := tp.demand * evBatchNS
	shares := [2]float64{localShare, slowShare}
	dstG := [2]int32{localG, slowG}
	dstEp := [2]int32{localEp, slowEp}
	reqLat := [2]sim.Tick{localHalf, slowReq}
	if tp.hasHop {
		dstG[streamSlow] = hopG
		dstEp[streamSlow] = hopEp
	}
	for s := 0; s < 2; s++ {
		if shares[s] <= 0 {
			continue
		}
		q := int64(math.Round(batchBytes * shares[s] / evQuantaPerStr))
		if q < 1 {
			q = 1
		}
		gen.qBytes[s] = q
		gen.perBatch[s] = evQuantaPerStr
		gen.targetQ[s] = evQuantaPerStr
		if !gen.batchMode {
			gen.targetQ[s] = evBatches * evQuantaPerStr
		}
		gen.dstG[s] = dstG[s]
		gen.dstEp[s] = dstEp[s]
		gen.reqLat[s] = reqLat[s]
		offered := tp.demand // batch phases focus every thread on one tier
		if !gen.batchMode {
			offered = tp.demand * shares[s]
		}
		gen.paceNS[s] = float64(q) / offered
	}
	gen.ports[0] = se.NewPort()
	gen.ports[1] = se.NewPort()
	gen.pDaemon = se.NewPort()
	daemon.port = se.NewPort()
	local.port = se.NewPort()
	slow.port = se.NewPort()
	hop.port = se.NewPort()
	gen.fnIssue[0] = func() { gen.issueOne(0) }
	gen.fnIssue[1] = func() { gen.issueOne(1) }

	gen.eng.At(0, gen.start)
	se.Run()

	// Bandwidth is served bytes over the measured span: the whole run under
	// batch threading (phases serialize), per-stream spans under table
	// threading (tiers progress independently).
	res := Result{}
	span := func(s int) float64 {
		if !gen.started[s] {
			return 0
		}
		return float64(gen.lastRsp[s] - gen.firstIssue[s])
	}
	if gen.batchMode {
		last := gen.lastRsp[0]
		if gen.lastRsp[1] > last {
			last = gen.lastRsp[1]
		}
		first := sim.MaxTick
		for s := 0; s < 2; s++ {
			if gen.started[s] && gen.firstIssue[s] < first {
				first = gen.firstIssue[s]
			}
		}
		if total := float64(last - first); total > 0 {
			res.LocalGBs = float64(gen.bytesDone[streamLocal]) / total
			res.SlowGBs = float64(gen.bytesDone[streamSlow]) / total
		}
	} else {
		if t := span(streamLocal); t > 0 {
			res.LocalGBs = float64(gen.bytesDone[streamLocal]) / t
		}
		if t := span(streamSlow); t > 0 {
			res.SlowGBs = float64(gen.bytesDone[streamSlow]) / t
		}
	}
	res.AppGBs = res.LocalGBs + res.SlowGBs
	if res.AppGBs > 0 {
		res.AvgLatNS = (res.LocalGBs*p.LocalLatNS + res.SlowGBs*tp.slowLat) / res.AppGBs
	}
	return res, nil
}
