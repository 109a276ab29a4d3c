// Package fault describes deterministic fault-injection plans for the
// simulated system: link flaps, CXL device failure or latency inflation,
// DRAM channel offlining, and fabric-switch stalls. A Plan is declarative
// data — the engine compiles it into ordinary calendar events on the
// owning component's group engine, so the byte-determinism contract
// (identical results at every shard count and placement) survives fault
// injection unchanged.
//
// Production fleets see these events as routine, not exceptional; a
// simulator that can only model the happy path cannot rank schemes on how
// gracefully they degrade. The fault-sweep harness experiment and
// `pifssim -faults plan.json` are the front-ends.
package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"pifsrec/internal/sim"
)

// Kind discriminates fault events.
type Kind string

// The supported fault kinds.
const (
	// LinkFlap takes one named link down for the window: transfers
	// starting inside it are delayed to the window's end (the CXL
	// link-layer retrains and retries transparently, at a latency cost).
	LinkFlap Kind = "link-flap"
	// DeviceFail makes a CXL device drop incoming reads for the window;
	// the switch-side timeout/retry machinery recovers or aborts.
	DeviceFail Kind = "device-fail"
	// DeviceSlow inflates a CXL device's controller latency by ExtraNS
	// per access for the window (thermal throttling, media retries).
	DeviceSlow Kind = "device-slow"
	// DRAMOffline takes one DRAM channel of a CXL device offline for the
	// window: queued requests wait, nothing is lost.
	DRAMOffline Kind = "dram-offline"
	// SwitchStall freezes a fabric switch's instruction decoder for the
	// window; hosts re-route affected bags to the host-DRAM fallback.
	SwitchStall Kind = "switch-stall"
)

// Kinds lists every fault kind.
func Kinds() []Kind {
	return []Kind{LinkFlap, DeviceFail, DeviceSlow, DRAMOffline, SwitchStall}
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind `json:"kind"`
	// Target names the flapped link (LinkFlap only), e.g. "host0.down",
	// "sw0.dsp1.up", "sw0-sw1.req".
	Target string `json:"target,omitempty"`
	// Switch is the stalled switch index (SwitchStall).
	Switch int `json:"switch,omitempty"`
	// Device is the CXL device index (DeviceFail, DeviceSlow, DRAMOffline).
	Device int `json:"device,omitempty"`
	// Channel is the offlined DRAM channel index (DRAMOffline).
	Channel int `json:"channel,omitempty"`
	// AtNS / DurationNS bound the fault window [AtNS, AtNS+DurationNS),
	// which must close by sim.MaxInputNS.
	AtNS       int64 `json:"at_ns"`
	DurationNS int64 `json:"duration_ns"`
	// ExtraNS is the added per-access controller latency (DeviceSlow), at
	// most sim.MaxInputNS.
	ExtraNS int64 `json:"extra_ns,omitempty"`
}

// End returns the window's closing time.
func (e Event) End() int64 { return e.AtNS + e.DurationNS }

// Plan is a declarative fault schedule plus the retry policy the request
// path applies while any fault is possible. The zero value (and an empty
// Events list) is the no-fault plan: the engine treats it exactly like a
// nil plan, bit for bit.
type Plan struct {
	// Events are the scheduled faults, in any order.
	Events []Event `json:"events"`
	// MaxRetries bounds how often a timed-out read is re-sent before the
	// request aborts (default 3). TimeoutNS and the last retry's backoff,
	// BackoffNS<<(MaxRetries-1), must not pass sim.MaxInputNS.
	MaxRetries int `json:"max_retries,omitempty"`
	// TimeoutNS is the switch-side deadline for a device read's reply
	// (default 2000).
	TimeoutNS int64 `json:"timeout_ns,omitempty"`
	// BackoffNS is the base retry backoff; retry k waits BackoffNS<<(k-1)
	// (default 1000).
	BackoffNS int64 `json:"backoff_ns,omitempty"`
}

// Defaults for the retry policy.
const (
	DefaultMaxRetries = 3
	DefaultTimeoutNS  = 2000
	DefaultBackoffNS  = 1000
)

// Empty reports whether the plan schedules no faults.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// RetryLimit returns MaxRetries with the default applied.
func (p *Plan) RetryLimit() int {
	if p.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return p.MaxRetries
}

// Timeout returns TimeoutNS with the default applied.
func (p *Plan) Timeout() int64 {
	if p.TimeoutNS <= 0 {
		return DefaultTimeoutNS
	}
	return p.TimeoutNS
}

// Backoff returns BackoffNS with the default applied.
func (p *Plan) Backoff() int64 {
	if p.BackoffNS <= 0 {
		return DefaultBackoffNS
	}
	return p.BackoffNS
}

// Topology is what a plan is validated against: the assembled system's
// component counts and the exact set of link names the wiring created.
type Topology struct {
	Hosts    int
	Switches int
	Devices  int
	// DeviceChannels is the DRAM channel count of one CXL device.
	DeviceChannels int
	// Links are the valid LinkFlap targets.
	Links []string
}

// Validate checks every event against the topology and returns an
// actionable error naming the offending event.
func (p *Plan) Validate(topo Topology) error {
	if p == nil {
		return nil
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("fault: negative max_retries %d", p.MaxRetries)
	}
	if p.TimeoutNS < 0 || p.BackoffNS < 0 {
		return fmt.Errorf("fault: negative timeout_ns/backoff_ns (%d/%d)", p.TimeoutNS, p.BackoffNS)
	}
	if p.Timeout() > sim.MaxInputNS {
		return fmt.Errorf("fault: timeout_ns %d is past %d ns, the latest time an input may name", p.TimeoutNS, int64(sim.MaxInputNS))
	}
	// Retry k waits Backoff()<<(k-1), so the last retry's wait must stay
	// inside the bound as well.
	if r := p.RetryLimit(); p.Backoff() > sim.MaxInputNS>>(r-1) {
		return fmt.Errorf("fault: backoff_ns %d doubled over %d retries passes %d ns, the latest time an input may name",
			p.Backoff(), r, int64(sim.MaxInputNS))
	}
	links := make(map[string]bool, len(topo.Links))
	for _, l := range topo.Links {
		links[l] = true
	}
	for i, e := range p.Events {
		if e.AtNS < 0 {
			return fmt.Errorf("fault: event %d (%s): negative at_ns %d", i, e.Kind, e.AtNS)
		}
		if e.DurationNS <= 0 {
			return fmt.Errorf("fault: event %d (%s): duration_ns must be positive, got %d", i, e.Kind, e.DurationNS)
		}
		if e.AtNS > sim.MaxInputNS-e.DurationNS {
			return fmt.Errorf("fault: event %d (%s): window at_ns %d + duration_ns %d ends past %d ns, the latest time an input may name",
				i, e.Kind, e.AtNS, e.DurationNS, int64(sim.MaxInputNS))
		}
		switch e.Kind {
		case LinkFlap:
			if !links[e.Target] {
				return fmt.Errorf("fault: event %d (link-flap): unknown link %q — the configuration wires %s",
					i, e.Target, summarizeLinks(topo.Links))
			}
		case DeviceFail, DeviceSlow:
			if e.Device < 0 || e.Device >= topo.Devices {
				return fmt.Errorf("fault: event %d (%s): device %d out of range — the configuration has %d devices (0..%d)",
					i, e.Kind, e.Device, topo.Devices, topo.Devices-1)
			}
			if e.Kind == DeviceSlow && (e.ExtraNS <= 0 || e.ExtraNS > sim.MaxInputNS) {
				return fmt.Errorf("fault: event %d (device-slow): extra_ns must be positive and at most %d ns, the longest delay an input may name, got %d",
					i, int64(sim.MaxInputNS), e.ExtraNS)
			}
		case DRAMOffline:
			if e.Device < 0 || e.Device >= topo.Devices {
				return fmt.Errorf("fault: event %d (dram-offline): device %d out of range — the configuration has %d devices (0..%d)",
					i, e.Device, topo.Devices, topo.Devices-1)
			}
			if e.Channel < 0 || e.Channel >= topo.DeviceChannels {
				return fmt.Errorf("fault: event %d (dram-offline): channel %d out of range — each device has %d DRAM channels (0..%d)",
					i, e.Channel, topo.DeviceChannels, topo.DeviceChannels-1)
			}
		case SwitchStall:
			if e.Switch < 0 || e.Switch >= topo.Switches {
				return fmt.Errorf("fault: event %d (switch-stall): switch %d out of range — the configuration has %d switches (0..%d)",
					i, e.Switch, topo.Switches, topo.Switches-1)
			}
		default:
			return fmt.Errorf("fault: event %d: unknown kind %q (have %v)", i, e.Kind, Kinds())
		}
	}
	return nil
}

// summarizeLinks renders a few valid link names for error messages.
func summarizeLinks(links []string) string {
	const show = 6
	if len(links) <= show {
		return strings.Join(links, ", ")
	}
	return fmt.Sprintf("%s, … (%d links)", strings.Join(links[:show], ", "), len(links))
}

// Parse decodes a JSON plan, rejecting unknown fields so a typo'd key
// fails loudly instead of silently disabling its fault.
func Parse(data []byte) (*Plan, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parsing plan: %w", err)
	}
	return &p, nil
}

// Load reads a JSON plan from a file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return Parse(data)
}

// Window is one half-open degraded interval [From, To).
type Window struct{ From, To int64 }

// Schedule is a compiled, immutable view of a plan: merged fault windows
// for O(log n) point queries. It is a pure function of the plan, safe to
// read from any shard mid-window (nothing mutates after Compile).
type Schedule struct {
	switchWin [][]Window // per switch index: merged SwitchStall windows
	all       []Window   // merged union of every event's window
}

// Compile builds the schedule. The plan must already be validated.
func Compile(p *Plan, switches int) *Schedule {
	s := &Schedule{switchWin: make([][]Window, switches)}
	var all []Window
	per := make([][]Window, switches)
	for _, e := range p.Events {
		all = append(all, Window{e.AtNS, e.End()})
		if e.Kind == SwitchStall {
			per[e.Switch] = append(per[e.Switch], Window{e.AtNS, e.End()})
		}
	}
	s.all = mergeWindows(all)
	for w := range per {
		s.switchWin[w] = mergeWindows(per[w])
	}
	return s
}

// mergeWindows sorts and coalesces overlapping windows.
func mergeWindows(ws []Window) []Window {
	if len(ws) == 0 {
		return nil
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
	out := ws[:1]
	for _, w := range ws[1:] {
		last := &out[len(out)-1]
		if w.From <= last.To {
			if w.To > last.To {
				last.To = w.To
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// covers reports whether t falls inside any window of ws.
func covers(ws []Window, t int64) bool {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].To > t })
	return i < len(ws) && ws[i].From <= t
}

// SwitchDown reports whether switch sw is inside a stall window at time t.
func (s *Schedule) SwitchDown(sw int, t int64) bool {
	if sw < 0 || sw >= len(s.switchWin) {
		return false
	}
	return covers(s.switchWin[sw], t)
}

// DegradedNS returns the total simulated time inside any fault window,
// clipped to [0, horizon): the numerator of the degraded-time fraction.
func (s *Schedule) DegradedNS(horizon int64) int64 {
	var total int64
	for _, w := range s.all {
		from, to := w.From, w.To
		if to > horizon {
			to = horizon
		}
		if to > from {
			total += to - from
		}
	}
	return total
}

// Chaos generates a seeded pseudo-random plan over the topology: one fault
// of each applicable kind, with windows inside [horizon/8, 7*horizon/8] and
// widths around horizon/8. Identical (seed, topo, horizon) inputs produce
// identical plans — chaos here is deterministic by construction, so the
// fault-sweep experiment reproduces bit for bit.
func Chaos(seed uint64, topo Topology, horizonNS int64) *Plan {
	if horizonNS < 16 {
		horizonNS = 16
	}
	rng := sim.NewRNG(seed)
	width := horizonNS / 8
	if width < 2 {
		width = 2
	}
	window := func() (at, dur int64) {
		span := horizonNS - horizonNS/4 - width
		if span < 1 {
			span = 1
		}
		return horizonNS/8 + rng.Int63n(span), width/2 + rng.Int63n(width)
	}
	p := &Plan{}
	if len(topo.Links) > 0 {
		at, dur := window()
		p.Events = append(p.Events, Event{
			Kind: LinkFlap, Target: topo.Links[rng.Intn(len(topo.Links))],
			AtNS: at, DurationNS: dur,
		})
	}
	if topo.Devices > 0 {
		at, dur := window()
		p.Events = append(p.Events, Event{
			Kind: DeviceFail, Device: rng.Intn(topo.Devices), AtNS: at, DurationNS: dur,
		})
		at, dur = window()
		p.Events = append(p.Events, Event{
			Kind: DeviceSlow, Device: rng.Intn(topo.Devices),
			AtNS: at, DurationNS: dur, ExtraNS: 200 + rng.Int63n(400),
		})
		if topo.DeviceChannels > 0 {
			at, dur = window()
			p.Events = append(p.Events, Event{
				Kind: DRAMOffline, Device: rng.Intn(topo.Devices),
				Channel: rng.Intn(topo.DeviceChannels), AtNS: at, DurationNS: dur,
			})
		}
	}
	if topo.Switches > 0 {
		at, dur := window()
		p.Events = append(p.Events, Event{
			Kind: SwitchStall, Switch: rng.Intn(topo.Switches), AtNS: at, DurationNS: dur,
		})
	}
	return p
}
