package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fnEndpoint is the sim tests' message endpoint: its HandleMsg calls the
// test's function.
type fnEndpoint struct {
	ComponentBase
	fn func(Envelope)
}

func (c *fnEndpoint) HandleMsg(env Envelope) { c.fn(env) }

// addGroups appends one placement group per weight to se, each holding one
// fnEndpoint of that weight. While every group and component of se comes
// from addGroups, a group's endpoint id equals its group id. Every message
// reaches fn.
func addGroups(se *ShardedEngine, fn func(Envelope), weights ...float64) {
	for _, w := range weights {
		g := se.NewGroup()
		se.Register(&fnEndpoint{ComponentBase: ComponentBase{Group: g, Weight: w}, fn: fn})
	}
}

// fakeNet wires a ShardedEngine whose endpoints record delivery order. Each
// of the `groups` placement groups gets one weight-1 endpoint.
type fakeNet struct {
	se    *ShardedEngine
	order []Envelope
}

func newFakeNet(workers, groups int, window Tick) *fakeNet {
	f := &fakeNet{se: NewSharded(workers, window)}
	record := func(env Envelope) {
		// Copy the addrs (the slot's buffer is recycled after return).
		cp := env
		cp.Addrs = append([]uint64(nil), env.Addrs...)
		f.order = append(f.order, cp)
	}
	for g := 0; g < groups; g++ {
		addGroups(f.se, record, 1)
	}
	return f
}

// TestMailboxDeliveryOrder posts messages from several groups with
// deliberately shuffled (time, port) combinations and requires delivery in
// (At, Port, Seq) order — the placement-independent merge key.
func TestMailboxDeliveryOrder(t *testing.T) {
	f := newFakeNet(3, 3, 50)
	se := f.se
	// One port per sending component (the ownership contract): pa, pb on
	// group 0; pc on group 1; pd on group 2.
	pa := se.NewPort()
	pb := se.NewPort()
	pc := se.NewPort()
	pd := se.NewPort()

	// A driver event in each group posts during the first window.
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(pa, 1, 1, 80, Payload{U0: 1}, []uint64{7, 8})
		se.Outbox(0).Post(pb, 1, 1, 80, Payload{U0: 2}, nil)
	})
	se.Group(1).At(0, func() {
		se.Outbox(1).Post(pc, 1, 1, 80, Payload{U0: 3}, nil)
		se.Outbox(1).Post(pc, 1, 1, 90, Payload{U0: 4}, nil)
	})
	se.Group(2).At(0, func() {
		se.Outbox(2).Post(pd, 1, 1, 70, Payload{U0: 5}, nil)
	})
	se.Run()

	want := []int32{5, 1, 2, 3, 4} // (70,pd) (80,pa) (80,pb) (80,pc) (90,pc)
	if len(f.order) != len(want) {
		t.Fatalf("delivered %d messages, want %d", len(f.order), len(want))
	}
	for i, env := range f.order {
		if env.P.U0 != want[i] {
			t.Errorf("delivery %d = U0 %d, want %d", i, env.P.U0, want[i])
		}
	}
	if got := f.order[1].Addrs; len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Errorf("addrs span corrupted: %v", got)
	}
	if se.PendingMessages() != 0 {
		t.Errorf("%d messages leaked", se.PendingMessages())
	}
}

// portOrderWorkload runs four sender groups that own twelve ports, dealt
// round-robin so each sender's ports interleave with the others', and two
// destination groups. Every window, each sender posts a burst on its ports
// in a shuffled order, to either destination, with delivery times drawn
// from three ticks so many messages share a tick. It returns what was
// posted to each destination (with the seq each port assigned) and what
// each destination's handler saw, in order.
func portOrderWorkload(workers int) (posted, delivered [][]Envelope) {
	const senders, dests, ports, rounds = 4, 2, 12, 6
	se := NewSharded(workers, 50)
	delivered = make([][]Envelope, senders+dests)
	record := func(env Envelope) {
		// One writer per destination: its group's engine runs the handler.
		delivered[env.Endpoint] = append(delivered[env.Endpoint], env)
	}
	for g := 0; g < senders+dests; g++ {
		addGroups(se, record, 1)
	}
	owned := make([][]int32, senders)
	for p := 0; p < ports; p++ {
		owned[p%senders] = append(owned[p%senders], se.NewPort())
	}
	// Each sender logs its own posts (one writer per sender) and counts
	// its ports' seqs itself.
	sent := make([][]Envelope, senders)
	for g := 0; g < senders; g++ {
		g := g
		eng := se.Group(g)
		rng := rand.New(rand.NewSource(int64(g) + 1))
		seq := make(map[int32]uint32)
		round := 0
		var burst func()
		burst = func() {
			for _, k := range rng.Perm(3 * len(owned[g])) {
				port := owned[g][k%len(owned[g])]
				dst := int32(senders + rng.Intn(dests))
				at := eng.Now() + 60 + Tick(rng.Intn(3))*5
				u := int32(len(sent[g]))<<8 | int32(g)
				se.Outbox(g).Post(port, dst, dst, at, Payload{U0: u}, nil)
				sent[g] = append(sent[g], Envelope{At: at, Port: port, Seq: seq[port], Endpoint: dst, P: Payload{U0: u}})
				seq[port]++
			}
			if round++; round < rounds {
				eng.At(eng.Now()+50, burst)
			}
		}
		eng.At(Tick(g), burst)
	}
	se.Run()
	posted = make([][]Envelope, senders+dests)
	for _, msgs := range sent {
		for _, env := range msgs {
			posted[env.Endpoint] = append(posted[env.Endpoint], env)
		}
	}
	return posted, delivered
}

// TestExchangeDeliversInPortOrder checks the barrier's port-order delivery
// against a brute-force sort: at 1, 2 and 3 workers, each destination must
// see exactly what was posted to it, in (At, Port, Seq) order.
func TestExchangeDeliversInPortOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		posted, delivered := portOrderWorkload(workers)
		total := 0
		for dst, want := range posted {
			sort.Slice(want, func(i, j int) bool {
				a, b := &want[i], &want[j]
				if a.At != b.At {
					return a.At < b.At
				}
				if a.Port != b.Port {
					return a.Port < b.Port
				}
				return a.Seq < b.Seq
			})
			got := delivered[dst]
			if len(got) != len(want) {
				t.Fatalf("%d workers: destination %d got %d messages, want %d", workers, dst, len(got), len(want))
			}
			ties := 0
			for i := range want {
				g := got[i]
				if g.At != want[i].At || g.Port != want[i].Port || g.Seq != want[i].Seq ||
					g.Endpoint != want[i].Endpoint || g.P != want[i].P {
					t.Fatalf("%d workers: destination %d delivery %d = %+v, want %+v", workers, dst, i, g, want[i])
				}
				if i > 0 && want[i].At == want[i-1].At {
					ties++
				}
			}
			if len(want) > 0 && ties == 0 {
				t.Fatalf("destination %d: no same-tick messages to order", dst)
			}
			total += len(want)
		}
		if total == 0 {
			t.Fatal("no messages delivered")
		}
	}
}

// TestPostFromSecondGroupPanics pins the one-owner-per-port rule that
// port-order delivery relies on: once group 0 has posted on a port, a post
// on it from group 1 panics with *PortOwnerError, which RunChecked returns.
func TestPostFromSecondGroupPanics(t *testing.T) {
	se := NewSharded(1, 50)
	addGroups(se, func(Envelope) {}, 1, 1, 1)
	p := se.NewPort()
	se.Group(0).At(0, func() { se.Outbox(0).Post(p, 2, 2, 80, Payload{}, nil) })
	se.Group(1).At(5, func() { se.Outbox(1).Post(p, 2, 2, 80, Payload{}, nil) })
	_, err := se.RunChecked()
	var pe *PortOwnerError
	if !errors.As(err, &pe) {
		t.Fatalf("posting on another group's port returned %v, want *PortOwnerError", err)
	}
	if pe.Port != p || pe.Owner != 0 || pe.Group != 1 {
		t.Errorf("PortOwnerError = %+v, want port %d owned by group 0, posted from group 1", pe, p)
	}
	if pe.Error() == "" {
		t.Error("empty error message")
	}
}

// pingRecord is one delivery as its destination endpoint observed it.
type pingRecord struct {
	at  Tick
	ep  int32
	u   int32
	cnt int32
}

// pingWorkload runs four message-bouncing endpoints (one group each) under a
// worker count and placement policy (nil for the default), and returns the
// per-endpoint delivery logs and the run's SchedStats. Used by the placement
// tests.
func pingWorkload(workers int, policy PlacementPolicy) ([][]pingRecord, SchedStats) {
	const eps = 4
	se := NewSharded(workers, 50)
	log := make([][]pingRecord, eps)
	ports := make([]int32, eps)
	weights := make([]float64, eps)
	for e := 0; e < eps; e++ {
		weights[e] = float64(1 + e) // deliberately uneven weights
		ports[e] = se.NewPort()
	}
	se.SetPlacement(policy)
	addGroups(se, func(env Envelope) {
		eng := se.Group(int(env.Endpoint))
		log[env.Endpoint] = append(log[env.Endpoint],
			pingRecord{at: env.At, ep: env.Endpoint, u: env.P.U0, cnt: env.P.U1})
		if env.P.U1 >= 12 {
			return
		}
		src := env.Endpoint
		dst := (env.Endpoint + 1 + env.P.U1%2) % eps
		// Respond after a little local work.
		cnt := env.P.U1 + 1
		eng.At(eng.Now()+3, func() {
			se.Outbox(int(src)).Post(ports[src], dst, dst,
				eng.Now()+60, Payload{U0: src, U1: cnt}, nil)
		})
	}, weights...)
	// Seed: every endpoint fires one initial message to its neighbor.
	for e := int32(0); e < eps; e++ {
		e := e
		eng := se.Group(int(e))
		dst := (e + 1) % eps
		eng.At(Tick(e), func() {
			se.Outbox(int(e)).Post(ports[e], dst, dst,
				eng.Now()+60, Payload{U0: e, U1: 0}, nil)
		})
	}
	se.Run()
	return log, se.SchedStats()
}

// TestMailboxPlacementInvariance runs the same message-driven workload at
// several worker counts AND under adversarial placement policies — all on
// one worker, reversed round-robin, random assignments — and requires each
// endpoint to observe an identical message sequence. (A single global order
// is NOT part of the contract: components in different groups may interleave
// freely within a window precisely because they share no state.)
func TestMailboxPlacementInvariance(t *testing.T) {
	base, _ := pingWorkload(1, nil)
	total := 0
	for _, seq := range base {
		total += len(seq)
	}
	if total == 0 {
		t.Fatal("no deliveries")
	}
	check := func(name string, got [][]pingRecord) {
		t.Helper()
		for ep := range base {
			if len(got[ep]) != len(base[ep]) {
				t.Fatalf("%s: endpoint %d saw %d messages, want %d", name, ep, len(got[ep]), len(base[ep]))
			}
			for i := range base[ep] {
				if got[ep][i] != base[ep][i] {
					t.Fatalf("%s: endpoint %d message %d = %+v, want %+v",
						name, ep, i, got[ep][i], base[ep][i])
				}
			}
		}
	}
	for _, n := range []int{2, 4} {
		got, _ := pingWorkload(n, nil)
		check("default", got)
	}
	policies := map[string]PlacementPolicy{
		"all-on-one": func(weights []float64, _ int) []int32 { return make([]int32, len(weights)) },
		"reverse-round-robin": func(weights []float64, workers int) []int32 {
			out := make([]int32, len(weights))
			for g := range out {
				out[g] = int32((len(weights) - g) % workers)
			}
			return out
		},
		"random": func(weights []float64, workers int) []int32 {
			rng := rand.New(rand.NewSource(42))
			out := make([]int32, len(weights))
			for g := range out {
				out[g] = int32(rng.Intn(workers))
			}
			return out
		},
	}
	for name, p := range policies {
		got, _ := pingWorkload(3, p)
		check(name, got)
	}
}

// TestMailboxSlotReuse drives steady-state traffic over many windows and
// requires the calendar envelope pools to stop growing: no leaks across
// windows, slots and address buffers recycled.
func TestMailboxSlotReuse(t *testing.T) {
	se := NewSharded(2, 50)
	p0, p1 := se.NewPort(), se.NewPort()
	addrs := []uint64{1, 2, 3, 4}
	var delivered int
	addGroups(se, func(env Envelope) {
		delivered++
		if env.P.U1 >= 400 {
			return
		}
		// Bounce back: the handler runs on the receiving group's engine, so
		// it posts from that group's outbox using that group's clock.
		if env.Endpoint == 0 {
			se.Outbox(0).Post(p0, 1, 1, se.Group(0).Now()+60, Payload{U1: env.P.U1 + 1}, addrs)
		} else {
			se.Outbox(1).Post(p1, 0, 0, se.Group(1).Now()+60, Payload{U1: env.P.U1 + 1}, addrs)
		}
	}, 1, 1)
	// Bootstrap: group 1 posts the first message.
	se.Group(1).At(0, func() {
		se.Outbox(1).Post(p1, 0, 0, 60, Payload{U1: 0}, addrs)
	})
	se.Run()
	if delivered < 400 {
		t.Fatalf("only %d deliveries", delivered)
	}
	if se.PendingMessages() != 0 {
		t.Errorf("%d messages leaked after drain", se.PendingMessages())
	}
	if cap0 := se.InboxCapacity(0); cap0 > 4 {
		t.Errorf("envelope arena grew to %d slots under ping-pong traffic (want <= 4)", cap0)
	}
}

// TestMailboxSteadyStateZeroAlloc re-runs a warmed message cycle and
// requires zero heap allocations: outbox rings, merge scratch, calendar
// envelope slots, per-window plans, and engine events must all recycle.
func TestMailboxSteadyStateZeroAlloc(t *testing.T) {
	se := NewSharded(2, 50)
	p0, p1 := se.NewPort(), se.NewPort()
	addrs := []uint64{1, 2, 3}
	remaining := 0
	addGroups(se, func(env Envelope) {
		if remaining <= 0 {
			return
		}
		remaining--
		if env.Endpoint == 0 {
			se.Outbox(0).Post(p0, 1, 1, se.Group(0).Now()+60, Payload{}, addrs)
		} else {
			se.Outbox(1).Post(p1, 0, 0, se.Group(1).Now()+60, Payload{}, addrs)
		}
	}, 1, 1)
	cycle := func() {
		// Group clocks drift apart once queues drain (idle groups stop
		// advancing); align them before re-seeding so the bootstrap post's
		// delivery time is in every group's future.
		var end Tick
		for i := 0; i < se.Groups(); i++ {
			if now := se.Group(i).Now(); now > end {
				end = now
			}
		}
		for i := 0; i < se.Groups(); i++ {
			se.Group(i).RunUntil(end)
		}
		remaining = 50
		se.Outbox(0).Post(p0, 1, 1, end+60, Payload{}, addrs)
		se.Run()
	}
	cycle() // warm pools
	if allocs := testing.AllocsPerRun(20, cycle); allocs > 0 {
		t.Errorf("steady-state mailbox cycle allocates %.1f objects/run, want 0", allocs)
	}
}

// TestMailboxLookaheadViolationPanics pins the conservative-window guard: a
// message delivered inside the current window is a modelling bug.
func TestMailboxLookaheadViolationPanics(t *testing.T) {
	se := NewSharded(2, 50)
	addGroups(se, func(Envelope) {}, 1, 1)
	port := se.NewPort()
	defer func() {
		if recover() == nil {
			t.Error("short-latency Post did not panic")
		}
	}()
	se.Group(0).At(10, func() {
		// Window is [10, 60); delivery at 20 violates the lookahead.
		se.Outbox(0).Post(port, 1, 1, 20, Payload{}, nil)
	})
	se.Run()
}

// TestPlacementDecidedOnce pins the one placement: the default (nil) policy
// is PlaceGroups, evaluated once over the static weights at the first Run,
// so a multi-window run under it schedules exactly like a run under an
// explicit PlaceGroups — same cross-shard envelopes, same fired share.
func TestPlacementDecidedOnce(t *testing.T) {
	_, def := pingWorkload(2, nil)
	calls := 0
	counted := func(weights []float64, workers int) []int32 {
		calls++
		return PlaceGroups(weights, workers)
	}
	_, got := pingWorkload(2, counted)
	if calls != 1 {
		t.Errorf("placement policy ran %d times in one run, want once", calls)
	}
	if def.WindowsRun < 2 || def.CrossShardEnvelopes == 0 {
		t.Fatalf("workload too small to show placement: %+v", def)
	}
	if !reflect.DeepEqual(def, got) {
		t.Errorf("default placement scheduled unlike PlaceGroups:\n default  %+v\n explicit %+v", def, got)
	}
}

// TestBarrierElisionSkipsEmptyWindows pins the empty-barrier fast path: a
// burst of cross-group messages followed by a long message-free local tail
// must elide the silent windows' barriers — and an installed barrier hook
// with an idle predicate must not fire during them.
func TestBarrierElisionSkipsEmptyWindows(t *testing.T) {
	se := NewSharded(2, 50)
	p0 := se.NewPort()
	idle := true
	var barriers int
	addGroups(se, func(env Envelope) {
		// A message-free tail: 40 local events spaced one window apart.
		eng := se.Group(int(env.Endpoint))
		var tick func()
		n := 0
		tick = func() {
			if n++; n < 40 {
				eng.At(eng.Now()+60, tick)
			}
		}
		eng.At(eng.Now()+60, tick)
	}, 1, 1)
	se.SetBarrier(func(Tick) { barriers++ })
	se.SetBarrierIdle(func() bool { return idle })
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(p0, 1, 1, 60, Payload{}, nil)
	})
	se.Run()
	s := se.SchedStats()
	if s.WindowsElided == 0 {
		t.Fatalf("no windows elided across a message-free tail: %+v", s)
	}
	if got := int64(barriers); got != s.WindowsRun {
		t.Errorf("barrier fired %d times, want once per non-elided window (%d)", barriers, s.WindowsRun)
	}
	if s.Envelopes != 1 {
		t.Errorf("envelope count %d, want 1", s.Envelopes)
	}
}

// TestBarrierNotIdleDisablesElision: a barrier whose idle predicate reports
// false must fire every window — elision never skips live bookkeeping.
func TestBarrierNotIdleDisablesElision(t *testing.T) {
	se := NewSharded(2, 50)
	p0 := se.NewPort()
	addGroups(se, func(env Envelope) {
		eng := se.Group(int(env.Endpoint))
		n := 0
		var tick func()
		tick = func() {
			if n++; n < 10 {
				eng.At(eng.Now()+60, tick)
			}
		}
		eng.At(eng.Now()+60, tick)
	}, 1, 1)
	se.SetBarrier(func(Tick) {})
	se.SetBarrierIdle(func() bool { return false })
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(p0, 1, 1, 60, Payload{}, nil)
	})
	se.Run()
	if s := se.SchedStats(); s.WindowsElided != 0 {
		t.Errorf("%d windows elided under a never-idle barrier", s.WindowsElided)
	}
}

// TestElisionGateViolationPanics pins the elision safety check: eliding a
// window while an outbox still stages a message would silently drop it, so
// elideWindow must panic with a structured *ElisionError instead.
func TestElisionGateViolationPanics(t *testing.T) {
	se := NewSharded(2, 50)
	addGroups(se, func(Envelope) {}, 1, 1)
	port := se.NewPort()
	se.ensureScratch()
	se.curEnd = 49
	se.Outbox(0).Post(port, 1, 1, 60, Payload{}, nil)
	defer func() {
		p := recover()
		ee, ok := p.(*ElisionError)
		if !ok {
			t.Fatalf("elideWindow with a staged message panicked with %v, want *ElisionError", p)
		}
		if ee.Group != 0 || ee.Staged != 1 {
			t.Errorf("ElisionError = %+v, want group 0 with 1 staged message", ee)
		}
	}()
	se.elideWindow()
}

// TestBarrierHookTimes verifies the barrier fires once per window with
// increasing window-end times.
func TestBarrierHookTimes(t *testing.T) {
	se := NewSharded(2, 50)
	addGroups(se, func(Envelope) {}, 1, 1)
	port := se.NewPort()
	var barriers []Tick
	se.SetBarrier(func(at Tick) { barriers = append(barriers, at) })
	se.Group(0).At(0, func() {
		se.Outbox(0).Post(port, 1, 1, 60, Payload{}, nil)
	})
	se.Run()
	if len(barriers) < 2 {
		t.Fatalf("barriers = %v, want at least the posting and delivery windows", barriers)
	}
	for i := 1; i < len(barriers); i++ {
		if barriers[i] <= barriers[i-1] {
			t.Fatalf("barrier times not increasing: %v", barriers)
		}
	}
}

// BenchmarkMailboxPingPong measures cross-group message cost: one message
// bounced between two groups through the full window/merge/inject cycle.
func BenchmarkMailboxPingPong(b *testing.B) {
	se := NewSharded(2, 50)
	p0, p1 := se.NewPort(), se.NewPort()
	addrs := []uint64{1, 2, 3, 4}
	remaining := 0
	addGroups(se, func(env Envelope) {
		if remaining <= 0 {
			return
		}
		remaining--
		if env.Endpoint == 0 {
			se.Outbox(0).Post(p0, 1, 1, se.Group(0).Now()+60, Payload{}, addrs)
		} else {
			se.Outbox(1).Post(p1, 0, 0, se.Group(1).Now()+60, Payload{}, addrs)
		}
	}, 1, 1)
	sync := func() Tick {
		var end Tick
		for i := 0; i < se.Groups(); i++ {
			if now := se.Group(i).Now(); now > end {
				end = now
			}
		}
		for i := 0; i < se.Groups(); i++ {
			se.Group(i).RunUntil(end)
		}
		return end
	}
	remaining = 8
	se.Outbox(0).Post(p0, 1, 1, sync()+60, Payload{}, addrs)
	se.Run() // warm pools
	b.ReportAllocs()
	b.ResetTimer()
	const hops = 64
	for i := 0; i < b.N; i++ {
		remaining = hops
		se.Outbox(0).Post(p0, 1, 1, sync()+60, Payload{}, addrs)
		se.Run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*hops), "ns/msg")
}
