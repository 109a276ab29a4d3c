package power

import (
	"math"
	"testing"
)

func TestPaperRatios(t *testing.T) {
	// §VI-D: "PIFS-Rec reduces the power 2.7x compared to RecNMPs" and
	// "requires 2.02x less area".
	if got := PowerRatioVsRecNMP(); math.Abs(got-2.7) > 3.5 {
		t.Errorf("power ratio %.2f implausible", got)
	}
	if got := PowerRatioVsRecNMP(); got < 2.0 {
		t.Errorf("power ratio %.2f, want >= 2 (paper: 2.7)", got)
	}
	if got := AreaRatioVsRecNMP(); got < 1.5 || got > 2.5 {
		t.Errorf("area ratio %.2f, want ~2.02", got)
	}
}

func TestBreakdownSums(t *testing.T) {
	logic := PIFSLogic()
	wantPower := ProcessCore.PowerMW + ControlRegs.PowerMW
	if logic.PowerMW != wantPower {
		t.Errorf("logic power %.1f, want %.1f", logic.PowerMW, wantPower)
	}
	total := PIFSTotal()
	if total.PowerMW <= logic.PowerMW || total.AreaUM2 <= logic.AreaUM2 {
		t.Error("total does not include the buffer")
	}
	if len(PIFSBlocks()) != 3 {
		t.Error("Fig 18 has three PIFS rows")
	}
}
