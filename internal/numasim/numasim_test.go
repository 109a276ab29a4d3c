package numasim

import "testing"

func TestAllLocalIsBaseline(t *testing.T) {
	p := Genoa()
	w := DefaultWorkload(BatchThreading, 64, 512<<10)
	r, err := Run(p, w, AllLocal)
	if err != nil {
		t.Fatal(err)
	}
	if r.SlowGBs != 0 {
		t.Errorf("all-local run used the slow tier: %+v", r)
	}
	if r.AppGBs <= 0 {
		t.Errorf("no bandwidth: %+v", r)
	}
}

func TestRemoteSocketDegradesBatchThreading(t *testing.T) {
	// Fig 5 (a): putting 20% of the set behind the inter-socket link
	// costs bandwidth under batch threading.
	p := Genoa()
	w := DefaultWorkload(BatchThreading, 128, 1024<<10)
	base, _ := Run(p, w, AllLocal)
	remote, _ := Run(p, w, RemoteSocket)
	if remote.AppGBs >= base.AppGBs {
		t.Errorf("remote socket did not degrade: %.0f vs %.0f", remote.AppGBs, base.AppGBs)
	}
	// The paper observes up to 95% degradation at large dims/sizes.
	if ratio := remote.AppGBs / base.AppGBs; ratio > 0.6 {
		t.Errorf("degradation too mild: normalized %.2f", ratio)
	}
}

func TestCXLBeatsRemoteSocket(t *testing.T) {
	// Fig 5 (c)-(d) vs (a)-(b): CXL placement outperforms remote-socket
	// placement for the same 20% share.
	p := Genoa()
	for _, dim := range []int{16, 32, 64, 128} {
		w := DefaultWorkload(TableThreading, dim, 512<<10)
		remote, _ := Run(p, w, RemoteSocket)
		cxl, _ := Run(p, w, CXLExpander)
		if cxl.AppGBs < remote.AppGBs {
			t.Errorf("dim %d: CXL (%.0f) below remote socket (%.0f)", dim, cxl.AppGBs, remote.AppGBs)
		}
	}
}

func TestInterleaveBeatsCXLOnlyShare(t *testing.T) {
	// Fig 5 (e)-(f): software interleaving uses CXL as a bandwidth
	// expander; table threading gains up to ~1.73x over all-local.
	p := Genoa()
	w := DefaultWorkload(TableThreading, 128, 1024<<10)
	base, _ := Run(p, w, AllLocal)
	inter, _ := Run(p, w, InterleaveCXL)
	if inter.AppGBs <= base.AppGBs*0.95 {
		t.Errorf("interleave (%.0f) lost to all-local (%.0f)", inter.AppGBs, base.AppGBs)
	}
}

func TestTableThreadingBeatsBatchOnSlowTiers(t *testing.T) {
	p := Genoa()
	wb := DefaultWorkload(BatchThreading, 64, 512<<10)
	wt := DefaultWorkload(TableThreading, 64, 512<<10)
	rb, _ := Run(p, wb, RemoteSocket)
	rt, _ := Run(p, wt, RemoteSocket)
	if rt.AppGBs < rb.AppGBs {
		t.Errorf("table threading (%.0f) below batch threading (%.0f) with a slow tier", rt.AppGBs, rb.AppGBs)
	}
}

// normalizedSeries runs a placement across table sizes and returns app
// bandwidth normalized to the all-local configuration at each size — the
// y-axis of Fig 5.
func normalizedSeries(p Platform, threading Threading, embDim int, tableSizes []int64, place Placement) ([]float64, error) {
	out := make([]float64, len(tableSizes))
	for i, ts := range tableSizes {
		w := DefaultWorkload(threading, embDim, ts)
		base, err := Run(p, w, AllLocal)
		if err != nil {
			return nil, err
		}
		r, err := Run(p, w, place)
		if err != nil {
			return nil, err
		}
		if base.AppGBs > 0 {
			out[i] = r.AppGBs / base.AppGBs
		}
	}
	return out, nil
}

func TestNormalizedSeriesShape(t *testing.T) {
	p := Genoa()
	series, err := normalizedSeries(p, BatchThreading, 64, Fig5TableSizes(), RemoteSocket)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 7 {
		t.Fatalf("series length %d, want 7", len(series))
	}
	for i, v := range series {
		if v <= 0 || v > 1.01 {
			t.Errorf("point %d: normalized bandwidth %v outside (0,1]", i, v)
		}
	}
	// Degradation should not recover at the largest sizes.
	if series[len(series)-1] > series[0] {
		t.Errorf("degradation vanished with table size: %v", series)
	}
}

func TestInterleaveSeriesExceedsOne(t *testing.T) {
	p := Genoa()
	series, err := normalizedSeries(p, TableThreading, 128, Fig5TableSizes(), InterleaveCXL)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, v := range series {
		if v > peak {
			peak = v
		}
	}
	if peak <= 1.0 {
		t.Errorf("interleave never beat all-local: peak %.2f", peak)
	}
}

func TestFig6MoreThreadsMoreBandwidth(t *testing.T) {
	p := Genoa()
	// The DIMM and CXL shares of the platform's total bandwidth, as
	// fig6Spec computes them.
	split := func(c Fig6Config) (dimm, cxl float64) {
		t.Helper()
		r, err := RunModel(ModelAnalytic, p, Fig6Workload(c), InterleaveCXL)
		if err != nil {
			t.Fatal(err)
		}
		total := p.LocalGBs + p.CXLGBs
		return r.LocalGBs / total, r.SlowGBs / total
	}
	d16, c16 := split(Fig6Config{Threads: 16, EmbDim: 64})
	d32, c32 := split(Fig6Config{Threads: 32, EmbDim: 64})
	if d32+c32 <= d16+c16 {
		t.Errorf("32 threads (%.3f) not above 16 threads (%.3f)", d32+c32, d16+c16)
	}
	if c16 <= 0 || c32 <= 0 {
		t.Error("CXL contributed nothing")
	}
}

func TestWorkloadValidation(t *testing.T) {
	p := Genoa()
	w := DefaultWorkload(BatchThreading, 64, 1<<20)
	w.Threads = 0
	if _, err := Run(p, w, AllLocal); err == nil {
		t.Error("zero threads accepted")
	}
	w = DefaultWorkload(BatchThreading, 64, 1<<20)
	w.RemoteShare = 1.5
	if _, err := Run(p, w, AllLocal); err == nil {
		t.Error("bad share accepted")
	}
	w = DefaultWorkload("diagonal", 64, 1<<20)
	if _, err := Run(p, w, AllLocal); err == nil {
		t.Error("bad threading accepted")
	}
	if _, err := Run(p, DefaultWorkload(BatchThreading, 64, 1<<20), Placement("moon")); err == nil {
		t.Error("bad placement accepted")
	}
}

func TestLatencyWeighting(t *testing.T) {
	p := Genoa()
	w := DefaultWorkload(TableThreading, 64, 512<<10)
	local, _ := Run(p, w, AllLocal)
	cxl, _ := Run(p, w, CXLExpander)
	if cxl.AvgLatNS <= local.AvgLatNS {
		t.Errorf("CXL placement latency %.0f not above local %.0f", cxl.AvgLatNS, local.AvgLatNS)
	}
}
