// Package tco implements the paper's cost and performance analysis (§VI-E):
// the Table III hardware catalog, CAPEX/OPEX total-cost-of-ownership
// comparison between a PIFS-Rec system and GPU parameter servers (Fig 16),
// the throughput comparison (Fig 17), and performance-per-watt.
package tco

import (
	"fmt"

	"pifsrec/internal/dlrm"
)

// Part is one Table III catalog row.
type Part struct {
	Name     string
	WattTDP  float64
	PriceUSD float64
}

// Table III hardware specifications.
var (
	ServerCPU = Part{Name: "AMD EPYC 9654 96C", WattTDP: 360, PriceUSD: 4695}
	// DDR4PerGB / DDR5PerGB are per-GB DIMM prices; wattage is per 64 GB
	// module scaled to per-GB.
	DDR4PerGB = Part{Name: "DDR4 (CXL mem)", WattTDP: 21.6 / 64, PriceUSD: 4.90}
	DDR5PerGB = Part{Name: "DDR5", WattTDP: 24.0 / 64, PriceUSD: 11.25}
	NIC       = Part{Name: "ConnectX-6 200Gbps", WattTDP: 23.6, PriceUSD: 1900}
	NetSwitch = Part{Name: "Juniper QFX10002-36Q", WattTDP: 360, PriceUSD: 11899}
	// FabricSwitchPU is the switch-with-processing-units estimate the paper
	// bases on an Intel Tofino-class ASIC.
	FabricSwitchPU = Part{Name: "3.2Tbps switch + PUs", WattTDP: 400, PriceUSD: 13039}
	GPU            = Part{Name: "NVIDIA A100 80GB", WattTDP: 300, PriceUSD: 18900}
)

// Paper cost-model constants (§VI-E).
const (
	// EnergyUSDPerKWh is the assumed datacenter energy price.
	EnergyUSDPerKWh = 0.05
	// OpexYears is the operational window.
	OpexYears = 3
	// CXLPowerShare: "CXL memory's power consumption is 90% of the local
	// DRAM" (conservative estimate, §VI-E).
	CXLPowerShare = 0.90
)

// SystemCost is a CAPEX/OPEX breakdown.
type SystemCost struct {
	Name     string
	CapexUSD float64
	// PowerW is sustained draw; OpexUSD is OpexYears of energy at that draw.
	PowerW  float64
	OpexUSD float64
}

// Total returns CAPEX plus OPEX.
func (c SystemCost) Total() float64 { return c.CapexUSD + c.OpexUSD }

func opexUSD(powerW float64) float64 {
	kwh := powerW / 1000 * 24 * 365 * OpexYears
	return kwh * EnergyUSDPerKWh
}

// memoryGB returns the deployment memory footprint for a model: embedding
// tables at production scale (full Table I sizes with the configured table
// count) plus headroom.
func memoryGB(m dlrm.ModelConfig) float64 {
	gb := float64(m.TotalEmbeddingBytes()) / (1 << 30)
	const headroom = 1.25
	gb *= headroom
	if gb < 64 {
		gb = 64
	}
	return gb
}

// PIFSSystem prices the PIFS-Rec deployment for a model: a CPU host, the
// fabric switch with processing units, local DDR5 (128 GB) and the rest of
// the footprint as DDR4 CXL memory.
func PIFSSystem(m dlrm.ModelConfig) SystemCost {
	memGB := memoryGB(m)
	localGB := 128.0
	if localGB > memGB {
		localGB = memGB
	}
	cxlGB := memGB - localGB

	capex := ServerCPU.PriceUSD + FabricSwitchPU.PriceUSD +
		localGB*DDR5PerGB.PriceUSD + cxlGB*DDR4PerGB.PriceUSD
	power := ServerCPU.WattTDP + FabricSwitchPU.WattTDP +
		localGB*DDR5PerGB.WattTDP + cxlGB*DDR5PerGB.WattTDP*CXLPowerShare
	return SystemCost{Name: "PIFS-Rec", CapexUSD: capex, PowerW: power, OpexUSD: opexUSD(power)}
}

// GPUSystem prices a conventional GPU parameter-server deployment: a CPU
// host with NIC and network switch, DDR5 for the full footprint, plus gpus
// A100s.
func GPUSystem(m dlrm.ModelConfig, gpus int) SystemCost {
	if gpus <= 0 {
		panic(fmt.Sprintf("tco: GPU system with %d GPUs", gpus))
	}
	memGB := memoryGB(m)
	capex := ServerCPU.PriceUSD + NIC.PriceUSD + NetSwitch.PriceUSD +
		memGB*DDR5PerGB.PriceUSD + float64(gpus)*GPU.PriceUSD
	power := ServerCPU.WattTDP + NIC.WattTDP + NetSwitch.WattTDP +
		memGB*DDR5PerGB.WattTDP + float64(gpus)*GPU.WattTDP
	return SystemCost{Name: fmt.Sprintf("GPU x%d", gpus),
		CapexUSD: capex, PowerW: power, OpexUSD: opexUSD(power)}
}

// Throughput models (Fig 17). SLS inference throughput is memory-bandwidth
// bound: the GPU parameter server is gated by the parameter server's host
// memory plus PCIe transfers once the model exceeds HBM; PIFS-Rec streams
// from the pooled devices at aggregate fabric bandwidth.
const (
	hbmGBs        = 1935.0 // A100 80 GB HBM2e
	hbmCapGB      = 80.0
	pcieGBs       = 64.0     // PCIe gen4 x16 effective per GPU
	hostMemGBs    = 460.0    // parameter-server DDR5
	pifsFabricGBs = 4 * 64.0 // four downstream ports
	pifsLocalGBs  = 460.0
)

// GPUThroughputGBs returns the effective SLS streaming bandwidth of a GPU
// parameter-server with the model's footprint: HBM-resident shards run at
// HBM speed, the remainder bottlenecks on host memory and PCIe.
func GPUThroughputGBs(m dlrm.ModelConfig, gpus int) float64 {
	memGB := memoryGB(m)
	hbmShare := float64(gpus) * hbmCapGB / memGB
	if hbmShare > 1 {
		hbmShare = 1
	}
	hbm := float64(gpus) * hbmGBs
	// The host-resident remainder is served at min(host memory, aggregate
	// PCIe) and stalls the GPUs waiting on it.
	spill := 1 - hbmShare
	if spill <= 0 {
		return hbm
	}
	spillGBs := hostMemGBs
	if p := float64(gpus) * pcieGBs; p < spillGBs {
		spillGBs = p
	}
	// Harmonic combination: each batch needs hbmShare from HBM and spill
	// from the host path.
	return 1.0 / (hbmShare/hbm + spill/spillGBs)
}

// PIFSThroughputGBs returns PIFS-Rec's effective SLS streaming bandwidth:
// local DRAM plus the fabric's downstream ports in parallel.
func PIFSThroughputGBs(m dlrm.ModelConfig) float64 {
	return pifsLocalGBs + pifsFabricGBs
}

// PPW returns performance-per-watt of PIFS-Rec relative to a gpus-GPU
// parameter server (§VI-E reports 1.22x–1.61x for 4 GPUs).
func PPW(m dlrm.ModelConfig, gpus int) float64 {
	p := PIFSSystem(m)
	g := GPUSystem(m, gpus)
	pifs := PIFSThroughputGBs(m) / p.PowerW
	gpu := GPUThroughputGBs(m, gpus) / g.PowerW
	return pifs / gpu
}
