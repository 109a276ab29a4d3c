package engine

import (
	"fmt"

	"pifsrec/internal/cxl"
	"pifsrec/internal/fabric"
	"pifsrec/internal/fault"
	"pifsrec/internal/sim"
)

// FaultTopology derives the fault-plan validation topology a configuration
// assembles: component counts plus the exact link names wireLinks creates,
// in the same construction order. Plans naming anything else are rejected
// before a simulation is built.
func FaultTopology(cfg Config) fault.Topology {
	hosts, switches, devices := defaultCounts(cfg.Hosts, cfg.Switches, cfg.Devices)
	t := fault.Topology{
		Hosts:          hosts,
		Switches:       switches,
		Devices:        devices,
		DeviceChannels: deviceGeometry().Channels,
	}
	for h := 0; h < hosts; h++ {
		t.Links = append(t.Links,
			fmt.Sprintf("host%d.down", h), fmt.Sprintf("host%d.up", h))
	}
	perSw := make([]int, switches)
	for d := 0; d < devices; d++ {
		w := d % switches
		t.Links = append(t.Links,
			fmt.Sprintf("sw%d.dsp%d.down", w, perSw[w]),
			fmt.Sprintf("sw%d.dsp%d.up", w, perSw[w]))
		perSw[w]++
	}
	if switches > 1 {
		for a := 0; a < switches; a++ {
			for b := 0; b < switches; b++ {
				if a != b {
					t.Links = append(t.Links,
						fmt.Sprintf("sw%d-sw%d.req", a, b),
						fmt.Sprintf("sw%d-sw%d.rsp", a, b))
				}
			}
		}
	}
	return t
}

// linkRef pairs a wired link with the engine of the group that owns it, so a
// fault transition can be scheduled as an ordinary calendar event there.
type linkRef struct {
	l   *cxl.Link
	eng *sim.Engine
}

// armFaults compiles the validated plan, arms every switch's retry protocol,
// and schedules each fault event's state transition on the owning
// component's group engine. Transitions are plain calendar events, so fault
// timing merges through the same (time, port, seq) order as everything else
// and results stay byte-identical at every shard count and placement.
func (s *system) armFaults(p *fault.Plan) {
	s.faultSched = fault.Compile(p, len(s.switches))
	fp := fabric.FaultParams{
		TimeoutNS:  sim.Tick(p.Timeout()),
		BackoffNS:  sim.Tick(p.Backoff()),
		MaxRetries: int32(p.RetryLimit()),
	}
	for _, sw := range s.switches {
		sw.SetFaultParams(fp)
	}
	for _, ev := range p.Events {
		at := sim.Tick(ev.AtNS)
		end := sim.Tick(ev.End())
		switch ev.Kind {
		case fault.LinkFlap:
			ref, ok := s.links[ev.Target]
			if !ok {
				panic(fmt.Sprintf("engine: fault plan names unwired link %q", ev.Target))
			}
			ref.eng.At(at, func() { ref.l.FaultDown(end) })
		case fault.DeviceFail:
			dev := s.devs[ev.Device]
			s.deviceEng(ev.Device).At(at, func() { dev.FaultDown(end) })
		case fault.DeviceSlow:
			dev := s.devs[ev.Device]
			extra := sim.Tick(ev.ExtraNS)
			s.deviceEng(ev.Device).At(at, func() { dev.FaultSlow(end, extra) })
		case fault.DRAMOffline:
			dev := s.devs[ev.Device]
			ch := ev.Channel
			s.deviceEng(ev.Device).At(at, func() { dev.FaultChannelOffline(ch, end) })
		case fault.SwitchStall:
			sw := s.switches[ev.Switch]
			s.se.Group(int(s.switchEndpoint(ev.Switch))).At(at, func() { sw.FaultStall(end) })
		default:
			panic(fmt.Sprintf("engine: fault plan with unknown kind %q", ev.Kind))
		}
	}
}

// deviceEng returns the engine of device d's placement group.
func (s *system) deviceEng(d int) *sim.Engine {
	return s.se.Group(int(s.deviceEndpoint(d)))
}

// StallError reports a simulation whose event queues drained with bags still
// outstanding — a lost completion somewhere in the pipeline. The structured
// fields tell the caller which host stalled and how far it got.
type StallError struct {
	Host        int
	Completed   int
	Total       int
	Outstanding int
}

func (e *StallError) Error() string {
	return fmt.Sprintf("engine: host %d stalled with %d/%d bags complete (%d outstanding) — a completion was lost",
		e.Host, e.Completed, e.Total, e.Outstanding)
}
