package tier

// Differential tests for the ranking path: the Manager ranks pages into
// buffers it keeps across epochs and sorts them with slices.SortFunc. The
// reference below is the earlier code, kept here verbatim in substance: it
// builds fresh slices every epoch and sorts them with sort.Slice. Both run
// the same pdqsort, so pages with equal scores must land in the same order,
// and every placement and EpochStats must match.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refInitialPlacement is the list-based initial placement: it collects the
// CXL-bound pages in a slice, then stripes them across the devices.
func refInitialPlacement(m *Manager) error {
	carry := 0.0
	var cxlPages []int
	for p := 0; p < m.pages; p++ {
		toLocal := false
		if !m.cfg.CXLOnly && m.cfg.InterleaveLocalShare > 0 {
			carry += m.cfg.InterleaveLocalShare
			if carry >= 1.0-1e-9 {
				carry -= 1.0
				toLocal = true
			}
		}
		if toLocal && m.nodeUsed[NodeLocal] < m.nodeCap[NodeLocal] {
			m.place[p] = NodeLocal
			m.nodeUsed[NodeLocal]++
			continue
		}
		cxlPages = append(cxlPages, p)
	}
	n := len(cxlPages)
	for i, p := range cxlPages {
		pref := Node(-1)
		if n > 0 {
			pref = FirstCXLNode + Node(i*m.cfg.CXLNodes/n)
			if pref >= FirstCXLNode+Node(m.cfg.CXLNodes) {
				pref = FirstCXLNode + Node(m.cfg.CXLNodes-1)
			}
		}
		placed := false
		for try := 0; try < m.cfg.CXLNodes; try++ {
			nd := FirstCXLNode + Node((int(pref-FirstCXLNode)+try)%m.cfg.CXLNodes)
			if m.nodeUsed[nd] < m.nodeCap[nd] {
				m.place[p] = nd
				m.nodeUsed[nd]++
				placed = true
				break
			}
		}
		if !placed {
			return fmt.Errorf("footprint exceeds total capacity at page %d", p)
		}
	}
	return nil
}

// refEpoch is Epoch with the reference PIFS ranking.
func refEpoch(m *Manager) EpochStats {
	var es EpochStats
	es.Swaps = refSwapHotCold(m)
	es.SpreadMoves = refSpread(m)
	es.PagesMigrated = es.Swaps*2 + es.SpreadMoves
	es.StallNS = int64(es.PagesMigrated) * m.stallPerPage()
	for p := range m.freq {
		m.freq[p] = m.freq[p]/2 + m.epochCnt[p]
		m.epochCnt[p] = 0
	}
	for n := range m.nodeCnt {
		m.nodeCnt[n] = 0
	}
	m.stats.Epochs++
	m.stats.Swaps += es.Swaps
	m.stats.SpreadMoves += es.SpreadMoves
	m.stats.StallNS += es.StallNS
	m.stats.PagesMigrated += es.PagesMigrated
	return es
}

func refSwapHotCold(m *Manager) int {
	var local, remote []scored
	for p := 0; p < m.pages; p++ {
		s := m.pageScore(p)
		if m.place[p] == NodeLocal {
			local = append(local, scored{p, s})
		} else if s > 0 {
			remote = append(remote, scored{p, s})
		}
	}
	sort.Slice(remote, func(i, j int) bool { return remote[i].score > remote[j].score })
	sort.Slice(local, func(i, j int) bool { return local[i].score < local[j].score })
	const maxSwapsPerEpoch = 64
	thr := 1.0 + m.cfg.ColdAgeThreshold
	swaps := 0
	li := 0
	for _, r := range remote {
		if swaps >= maxSwapsPerEpoch {
			break
		}
		if m.nodeUsed[NodeLocal] < m.nodeCap[NodeLocal] {
			m.movePage(r.page, NodeLocal)
			swaps++
			continue
		}
		if li >= len(local) {
			break
		}
		victim := local[li]
		if float64(r.score) <= float64(victim.score)*thr {
			break
		}
		dst := m.leastLoadedCXL()
		m.movePage(victim.page, dst)
		m.movePage(r.page, NodeLocal)
		li++
		swaps++
	}
	return swaps
}

func refSpread(m *Manager) int {
	n := m.cfg.CXLNodes
	if n < 2 {
		return 0
	}
	moves := 0
	margin := 1.0 - m.cfg.MigrateThreshold
	for iter := 0; iter < n; iter++ {
		var warm Node = -1
		var warmCnt int64 = -1
		var total int64
		for i := 0; i < n; i++ {
			nd := FirstCXLNode + Node(i)
			total += m.nodeCnt[nd]
			if m.nodeCnt[nd] > warmCnt {
				warmCnt = m.nodeCnt[nd]
				warm = nd
			}
		}
		if warm < 0 || total == 0 {
			return moves
		}
		avgOthers := float64(total-warmCnt) / float64(n-1)
		if float64(warmCnt) <= avgOthers*(1.0+margin) {
			return moves
		}
		cool := m.leastLoadedOtherCXL(warm)
		if cool == warm {
			return moves
		}
		var candidates []scored
		for p := 0; p < m.pages; p++ {
			if m.place[p] == warm {
				if s := m.pageScore(p); s > 0 {
					candidates = append(candidates, scored{p, s})
				}
			}
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].score > candidates[j].score })
		const maxMovesPerDevice = 32
		excess := float64(warmCnt) - avgOthers
		for _, c := range candidates {
			if moves >= maxMovesPerDevice*n || excess <= 0 {
				break
			}
			if float64(c.score) > excess {
				continue
			}
			if m.nodeUsed[cool] >= m.nodeCap[cool] {
				coldest, ok := m.coldestPageOn(cool)
				if !ok {
					break
				}
				m.movePage(coldest, warm)
				moves++
			}
			m.movePage(c.page, cool)
			m.nodeCnt[warm] -= int64(c.score)
			m.nodeCnt[cool] += int64(c.score)
			excess -= float64(c.score) * 2
			moves++
		}
	}
	return moves
}

// rankingConfig draws a PIFS configuration whose local tier fills up (so
// swaps displace victims) and whose devices are sometimes tight enough that
// spreading has to swap a page back.
func rankingConfig(rng *rand.Rand) (Config, int64) {
	pages := 200 + rng.Intn(600)
	cfg := Config{
		Policy:               PolicyPIFS,
		LocalBytes:           int64(10+rng.Intn(pages/4)) * PageBytes,
		CXLNodes:             2 + rng.Intn(4),
		InterleaveLocalShare: []float64{0.8, 0.5, 0.125, 1}[rng.Intn(4)],
		CXLOnly:              rng.Intn(5) == 0,
	}
	if rng.Intn(2) == 0 {
		per := pages/cfg.CXLNodes + 1 + rng.Intn(pages/cfg.CXLNodes+1)
		cfg.CXLNodeBytes = int64(per) * PageBytes
	}
	return cfg, int64(pages) * PageBytes
}

// recordEpoch draws one epoch of skewed accesses with small counts, so many
// pages tie on score: a hot address range on one device's share of the
// footprint, and a thin uniform background.
func recordEpoch(rng *rand.Rand, ms ...*Manager) {
	pages := ms[0].Pages()
	lo := rng.Intn(pages)
	span := 1 + rng.Intn(pages/3)
	for k := 0; k < 4*pages; k++ {
		var p int
		if rng.Intn(3) > 0 {
			p = (lo + rng.Intn(span)) % pages
		} else {
			p = rng.Intn(pages)
		}
		for _, m := range ms {
			m.Record(uint64(p) * PageBytes)
		}
	}
}

// TestRankingMatchesSortSliceReference runs random PIFS epochs with tied
// scores through the Manager and through the sort.Slice reference, and
// requires equal initial placements, equal EpochStats and equal placements
// after every epoch.
func TestRankingMatchesSortSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	swaps, spreads := 0, 0
	for trial := 0; trial < 40; trial++ {
		cfg, footprint := rankingConfig(rng)
		got, err := NewManager(cfg, footprint)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The reference manager: the same fields, placed by the reference.
		want := &Manager{
			cfg:      got.cfg,
			pages:    got.pages,
			place:    make([]Node, got.pages),
			epochCnt: make([]uint32, got.pages),
			freq:     make([]uint32, got.pages),
			nodeCnt:  make([]int64, len(got.nodeCnt)),
			nodeTot:  make([]int64, len(got.nodeTot)),
			nodeCap:  append([]int(nil), got.nodeCap...),
			nodeUsed: make([]int, len(got.nodeUsed)),
		}
		if err := refInitialPlacement(want); err != nil {
			t.Fatalf("trial %d: reference placement: %v", trial, err)
		}
		if !reflect.DeepEqual(got.place, want.place) || !reflect.DeepEqual(got.nodeUsed, want.nodeUsed) {
			t.Fatalf("trial %d (%+v): initial placement differs from the reference", trial, cfg)
		}
		for epoch := 0; epoch < 12; epoch++ {
			recordEpoch(rng, got, want)
			es, ref := got.Epoch(), refEpoch(want)
			if es != ref {
				t.Fatalf("trial %d epoch %d: EpochStats %+v, reference %+v", trial, epoch, es, ref)
			}
			if !reflect.DeepEqual(got.place, want.place) {
				t.Fatalf("trial %d epoch %d: placement differs from the reference", trial, epoch)
			}
			swaps += es.Swaps
			spreads += es.SpreadMoves
		}
		if got.Stats() != want.Stats() {
			t.Fatalf("trial %d: Stats %+v, reference %+v", trial, got.Stats(), want.Stats())
		}
	}
	if swaps == 0 || spreads == 0 {
		t.Fatalf("workload too tame: %d swaps, %d spread moves", swaps, spreads)
	}
}

// TestEpochSteadyStateZeroAlloc: once its ranking buffers have grown, a PIFS
// epoch that swaps and spreads allocates nothing.
func TestEpochSteadyStateZeroAlloc(t *testing.T) {
	cfg := baseConfig()
	cfg.LocalBytes = 32 * PageBytes
	m, err := NewManager(cfg, 512*PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	moved := 0
	epoch := func() {
		recordEpoch(rng, m)
		es := m.Epoch()
		moved += es.PagesMigrated
	}
	for i := 0; i < 20; i++ {
		epoch()
	}
	moved = 0
	if avg := testing.AllocsPerRun(50, epoch); avg != 0 {
		t.Errorf("steady-state Epoch allocates %.1f objects/op, want 0", avg)
	}
	if moved == 0 {
		t.Fatal("measured epochs migrated nothing")
	}
}
