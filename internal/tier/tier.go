// Package tier implements PIFS-Rec's software page management (§IV-B): a
// page-granular placement map over local DRAM ("Private Hot Region") and
// pooled CXL devices ("Public Cold Region"), global hotness detection,
// cold-age-threshold swapping between the regions, the embedding-spreading
// migration that balances I/O across CXL devices, and the page-block versus
// cache-line-block migration cost model (§IV-B4). A simplified TPP policy is
// included as the paper's comparison baseline (Fig 13(d)).
package tier

import (
	"cmp"
	"fmt"
	"slices"

	"pifsrec/internal/sim"
)

// PageBytes is the OS page size the manager tracks (§IV-B1).
const PageBytes = 4096

// Node identifies a memory node: NodeLocal is host-attached DRAM, values
// >= FirstCXLNode are CXL devices behind the fabric switch.
type Node int

// NodeLocal is the host DRAM tier.
const NodeLocal Node = 0

// FirstCXLNode is the node id of CXL device 0.
const FirstCXLNode Node = 1

// IsCXL reports whether the node is a pooled CXL device.
func (n Node) IsCXL() bool { return n >= FirstCXLNode }

// CXLIndex returns the device index of a CXL node.
func (n Node) CXLIndex() int {
	if !n.IsCXL() {
		panic("tier: CXLIndex of local node")
	}
	return int(n - FirstCXLNode)
}

// Policy selects the page-management algorithm.
type Policy string

// Policies.
const (
	// PolicyNone performs no migration; the initial placement is final
	// (plain Pond).
	PolicyNone Policy = "none"
	// PolicyPIFS is the paper's scheme: global hotness detection with
	// cold-age swapping plus embedding spreading across CXL devices.
	PolicyPIFS Policy = "pifs"
	// PolicyTPP is the transparent-page-placement baseline: local promotion
	// on reuse with LRU demotion, no global balancing.
	PolicyTPP Policy = "tpp"
)

// Config parameterizes a Manager.
type Config struct {
	Policy Policy
	// LocalBytes is the host-DRAM budget for embedding pages (the paper's
	// default experiment pins 128 GB; scaled runs shrink it).
	LocalBytes int64
	// CXLNodes is the number of pooled devices; CXLNodeBytes each.
	CXLNodes     int
	CXLNodeBytes int64
	// ColdAgeThreshold is the hot/cold swap margin (default 0.20, §IV-B2):
	// a cold page must beat the coldest private-hot page's frequency by
	// this fraction before the two swap.
	ColdAgeThreshold float64
	// MigrateThreshold tunes embedding spreading (default 0.35, §IV-B3): a
	// device is "warm" when its access count exceeds the others' average by
	// (1 - MigrateThreshold).
	MigrateThreshold float64
	// CacheLineMigration selects the cache-line-block migration path
	// (§IV-B4) instead of OS page blocking.
	CacheLineMigration bool
	// InterleaveLocalShare is the fraction of the footprint initially
	// placed in local DRAM (subject to LocalBytes); the characterization's
	// best split is 0.8 (4:1 interleave, §III).
	InterleaveLocalShare float64
	// CXLOnly forces every page onto CXL devices (BEACON-style placement).
	CXLOnly bool
}

// Migration stall costs per 4 KB page, in nanoseconds. The page-block value
// reflects OS unmap/copy/remap with the page inaccessible throughout; the
// cache-line path migrates 64 B at a time through the switch's Migration
// Controller so only one line ever blocks. The 5.1x ratio is the paper's
// measured improvement (§IV-B4).
const (
	PageBlockStallNS      = 2600
	CacheLineBlockStallNS = 510
)

// DefaultColdAge and DefaultMigrate are the paper's default thresholds.
const (
	DefaultColdAge = 0.20
	DefaultMigrate = 0.35
)

// EpochStats reports what one management epoch did.
type EpochStats struct {
	Swaps         int   // hot/cold swaps between local and CXL
	SpreadMoves   int   // pages moved between CXL devices
	StallNS       int64 // total migration stall charged
	PagesMigrated int
}

// Stats accumulates over the manager's lifetime.
type Stats struct {
	Epochs        int
	Swaps         int
	SpreadMoves   int
	StallNS       int64
	PagesMigrated int
}

// Manager owns the placement of a contiguous embedding footprint.
type Manager struct {
	cfg      Config
	pages    int
	place    []Node
	epochCnt []uint32 // accesses this epoch, per page
	freq     []uint32 // EWMA frequency, per page
	nodeCnt  []int64  // accesses this epoch, per node (0=local)
	nodeTot  []int64  // lifetime accesses per node
	nodeCap  []int    // page capacity per node
	nodeUsed []int
	stats    Stats
	// onMove, when set, is invoked for every migrated page (destination
	// nodes); the engine uses it to invalidate switch buffers.
	onMove func(page int, from, to Node)
	// Ranking buffers kept across epochs, so a steady-state epoch allocates
	// nothing: swapHotCold ranks local and remote pages, spread the warm
	// device's candidates.
	rankLocal, rankRemote, rankCand []scored
}

// scored is a page and its ranking score (pageScore).
type scored struct {
	page  int
	score uint32
}

// hottestFirst and coldestFirst order rankings for slices.SortFunc. Its
// pdqsort is not stable, but it is the algorithm sort.Slice runs, so pages
// with equal scores land as they would under sort.Slice with the same
// comparison (ranking_test.go holds the two equal).
func hottestFirst(a, b scored) int { return cmp.Compare(b.score, a.score) }
func coldestFirst(a, b scored) int { return cmp.Compare(a.score, b.score) }

// NewManager places footprint bytes of embedding data and returns the
// manager. Initial placement: a hot-share prefix heuristic is not available
// before any access, so pages are interleaved — InterleaveLocalShare of them
// on local DRAM (round-robin), the rest striped across CXL devices, unless
// CXLOnly is set.
func NewManager(cfg Config, footprint int64) (*Manager, error) {
	if footprint <= 0 {
		return nil, fmt.Errorf("tier: non-positive footprint %d", footprint)
	}
	if cfg.CXLNodes <= 0 {
		return nil, fmt.Errorf("tier: need at least one CXL node, got %d", cfg.CXLNodes)
	}
	if cfg.ColdAgeThreshold == 0 {
		cfg.ColdAgeThreshold = DefaultColdAge
	}
	if cfg.MigrateThreshold == 0 {
		cfg.MigrateThreshold = DefaultMigrate
	}
	if cfg.InterleaveLocalShare == 0 {
		cfg.InterleaveLocalShare = 0.8
	}
	if cfg.InterleaveLocalShare < 0 || cfg.InterleaveLocalShare > 1 {
		return nil, fmt.Errorf("tier: InterleaveLocalShare %v outside [0,1]", cfg.InterleaveLocalShare)
	}
	switch cfg.Policy {
	case PolicyNone, PolicyPIFS, PolicyTPP:
	default:
		return nil, fmt.Errorf("tier: unknown policy %q", cfg.Policy)
	}

	pages := int((footprint + PageBytes - 1) / PageBytes)
	m := &Manager{
		cfg:      cfg,
		pages:    pages,
		place:    make([]Node, pages),
		epochCnt: make([]uint32, pages),
		freq:     make([]uint32, pages),
		nodeCnt:  make([]int64, cfg.CXLNodes+1),
		nodeTot:  make([]int64, cfg.CXLNodes+1),
		nodeCap:  make([]int, cfg.CXLNodes+1),
		nodeUsed: make([]int, cfg.CXLNodes+1),
	}
	m.nodeCap[NodeLocal] = int(cfg.LocalBytes / PageBytes)
	for i := 0; i < cfg.CXLNodes; i++ {
		capPages := int(cfg.CXLNodeBytes / PageBytes)
		if cfg.CXLNodeBytes == 0 {
			capPages = pages // unconstrained
		}
		m.nodeCap[FirstCXLNode+Node(i)] = capPages
	}

	if err := m.initialPlacement(); err != nil {
		return nil, err
	}
	return m, nil
}

// unplaced marks a page initialPlacement has left for the CXL devices.
const unplaced Node = -1

func (m *Manager) initialPlacement() error {
	// Bresenham-style interleave: accumulate the local share per page so any
	// ratio works (0.8 -> the paper's 4:1 split; 0.125 -> 1 of 8 local).
	carry := 0.0
	remote := 0
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
		m.place[p] = unplaced
		remote++
	}
	// The remaining pages, in address order, are divided into contiguous,
	// equal address ranges across the devices ("We divide the trace file
	// region evenly across memory devices", §VI-C4). Contiguity is what lets
	// traffic skew overload one device — the imbalance embedding spreading
	// (§IV-B3) later repairs.
	i := 0
	for p := 0; p < m.pages; p++ {
		if m.place[p] != unplaced {
			continue
		}
		pref := FirstCXLNode + Node(i*m.cfg.CXLNodes/remote)
		if pref >= FirstCXLNode+Node(m.cfg.CXLNodes) {
			pref = FirstCXLNode + Node(m.cfg.CXLNodes-1)
		}
		i++
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
			return fmt.Errorf("tier: footprint exceeds total capacity at page %d/%d", p, m.pages)
		}
	}
	return nil
}

// Pages returns the number of managed pages.
func (m *Manager) Pages() int { return m.pages }

// Stats returns lifetime statistics.
func (m *Manager) Stats() Stats { return m.stats }

// SetMoveHook registers a callback invoked for each migrated page.
func (m *Manager) SetMoveHook(fn func(page int, from, to Node)) { m.onMove = fn }

// PageOf returns the page index containing a footprint-relative address.
func (m *Manager) PageOf(addr uint64) int {
	p := int(addr / PageBytes)
	if p >= m.pages {
		panic(fmt.Sprintf("tier: address %#x beyond footprint (%d pages)", addr, m.pages))
	}
	return p
}

// NodeOf returns the current placement of an address.
func (m *Manager) NodeOf(addr uint64) Node { return m.place[m.PageOf(addr)] }

// NodeOfPage returns the current placement of a page index.
func (m *Manager) NodeOfPage(p int) Node { return m.place[p] }

// Record notes one access to addr for hotness accounting.
func (m *Manager) Record(addr uint64) {
	p := m.PageOf(addr)
	m.epochCnt[p]++
	n := m.place[p]
	m.nodeCnt[n]++
	m.nodeTot[n]++
}

// NodeAccessCounts returns lifetime access counts per node, index 0 local.
func (m *Manager) NodeAccessCounts() []int64 {
	out := make([]int64, len(m.nodeTot))
	copy(out, m.nodeTot)
	return out
}

// LocalShareOfAccesses returns the fraction of recorded accesses served by
// local DRAM so far.
func (m *Manager) LocalShareOfAccesses() float64 {
	var total int64
	for _, c := range m.nodeTot {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(m.nodeTot[NodeLocal]) / float64(total)
}

// stallPerPage returns the migration stall for one page move.
func (m *Manager) stallPerPage() int64 {
	if m.cfg.CacheLineMigration {
		return CacheLineBlockStallNS
	}
	return PageBlockStallNS
}

// Epoch runs one management round using the accesses recorded since the
// previous epoch, applies migrations, and returns what happened. Frequency
// state decays with an EWMA so stale hotness fades.
func (m *Manager) Epoch() EpochStats {
	var es EpochStats
	switch m.cfg.Policy {
	case PolicyNone:
		// placement is static
	case PolicyPIFS:
		es.Swaps = m.swapHotCold()
		es.SpreadMoves = m.spread()
	case PolicyTPP:
		es.Swaps = m.tppPromote()
	}
	es.PagesMigrated = es.Swaps*2 + es.SpreadMoves
	es.StallNS = int64(es.PagesMigrated) * m.stallPerPage()

	// Fold the epoch into the EWMA and reset epoch counters.
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

// movePage relocates page p to node dst, updating bookkeeping.
func (m *Manager) movePage(p int, dst Node) {
	src := m.place[p]
	if src == dst {
		return
	}
	m.nodeUsed[src]--
	m.nodeUsed[dst]++
	m.place[p] = dst
	if m.onMove != nil {
		m.onMove(p, src, dst)
	}
}

// pageScore is the hotness used for ranking: EWMA history plus this epoch.
func (m *Manager) pageScore(p int) uint32 { return m.freq[p]/2 + m.epochCnt[p] }

// swapHotCold implements global hotness detection (§IV-B2): the hottest
// pages overall belong in the private hot region (local DRAM); a public
// cold page displaces the coldest private page only when its frequency
// exceeds it by the cold-age threshold.
func (m *Manager) swapHotCold() int {
	local, remote := m.rankLocal[:0], m.rankRemote[:0]
	for p := 0; p < m.pages; p++ {
		s := m.pageScore(p)
		if m.place[p] == NodeLocal {
			local = append(local, scored{p, s})
		} else if s > 0 {
			remote = append(remote, scored{p, s})
		}
	}
	m.rankLocal, m.rankRemote = local, remote
	// Hottest remote first; coldest local first.
	slices.SortFunc(remote, hottestFirst)
	slices.SortFunc(local, coldestFirst)

	// maxSwapsPerEpoch rate-limits promotion churn the way kernel migration
	// daemons do; without it the first epochs would stall the system
	// repaving the whole local tier at once.
	const maxSwapsPerEpoch = 64
	thr := 1.0 + m.cfg.ColdAgeThreshold
	swaps := 0
	li := 0
	for _, r := range remote {
		if swaps >= maxSwapsPerEpoch {
			break
		}
		// Fill free local capacity first (no displacement, promotion only).
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
			break // remote pages are sorted; no further candidate qualifies
		}
		dst := m.leastLoadedCXL()
		m.movePage(victim.page, dst)
		m.movePage(r.page, NodeLocal)
		li++
		swaps++
	}
	return swaps
}

// leastLoadedCXL returns the CXL node with the fewest epoch accesses and
// free capacity.
func (m *Manager) leastLoadedCXL() Node {
	best := FirstCXLNode
	var bestCnt int64 = 1<<62 - 1
	for i := 0; i < m.cfg.CXLNodes; i++ {
		n := FirstCXLNode + Node(i)
		if m.nodeUsed[n] >= m.nodeCap[n] {
			continue
		}
		if m.nodeCnt[n] < bestCnt {
			bestCnt = m.nodeCnt[n]
			best = n
		}
	}
	return best
}

// spread implements embedding spreading (§IV-B3): when one CXL device's
// access count exceeds the other devices' average by (1 - migrate
// threshold), its hottest pages move to the least-loaded device until the
// device would fall back under the trigger; overflowing capacity swaps the
// destination's coldest page back.
func (m *Manager) spread() int {
	n := m.cfg.CXLNodes
	if n < 2 {
		return 0
	}
	moves := 0
	margin := 1.0 - m.cfg.MigrateThreshold

	for iter := 0; iter < n; iter++ {
		// Find the warmest device and the average of the others.
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

		// Move the warm device's hottest pages to the coolest device until
		// the imbalance clears (bounded per epoch to limit stall bursts).
		cool := m.leastLoadedOtherCXL(warm)
		if cool == warm {
			return moves
		}
		candidates := m.rankCand[:0]
		for p := 0; p < m.pages; p++ {
			if m.place[p] == warm {
				if s := m.pageScore(p); s > 0 {
					candidates = append(candidates, scored{p, s})
				}
			}
		}
		m.rankCand = candidates
		slices.SortFunc(candidates, hottestFirst)

		const maxMovesPerDevice = 32
		excess := float64(warmCnt) - avgOthers
		for _, c := range candidates {
			if moves >= maxMovesPerDevice*n || excess <= 0 {
				break
			}
			// Moving a page hotter than the gap itself would just relocate
			// the hotspot (and oscillate); such imbalance is irreducible by
			// migration, so skip to colder pages.
			if float64(c.score) > excess {
				continue
			}
			if m.nodeUsed[cool] >= m.nodeCap[cool] {
				// Swap: the destination's coldest page returns to the warm
				// device so capacity stays balanced (§IV-B3).
				coldest, ok := m.coldestPageOn(cool)
				if !ok {
					break
				}
				m.movePage(coldest, warm)
				moves++
			}
			m.movePage(c.page, cool)
			// Transfer the page's accounted traffic for convergence.
			m.nodeCnt[warm] -= int64(c.score)
			m.nodeCnt[cool] += int64(c.score)
			excess -= float64(c.score) * 2
			moves++
		}
	}
	return moves
}

func (m *Manager) leastLoadedOtherCXL(except Node) Node {
	best := except
	var bestCnt int64 = 1<<62 - 1
	for i := 0; i < m.cfg.CXLNodes; i++ {
		nd := FirstCXLNode + Node(i)
		if nd == except {
			continue
		}
		if m.nodeCnt[nd] < bestCnt {
			bestCnt = m.nodeCnt[nd]
			best = nd
		}
	}
	return best
}

func (m *Manager) coldestPageOn(n Node) (int, bool) {
	best := -1
	var bestScore uint32 = 1<<31 - 1
	for p := 0; p < m.pages; p++ {
		if m.place[p] == n {
			if s := m.pageScore(p); s < bestScore {
				bestScore = s
				best = p
			}
		}
	}
	return best, best >= 0
}

// tppPromote is the simplified TPP baseline: any CXL page touched at least
// twice this epoch is promoted to local DRAM; when local DRAM is full the
// least-hot local page is demoted first. There is no global ranking and no
// device balancing — the gap the paper's Fig 13(d) measures.
func (m *Manager) tppPromote() int {
	const promoteAt = 2
	swaps := 0
	for p := 0; p < m.pages; p++ {
		if !m.place[p].IsCXL() || m.epochCnt[p] < promoteAt {
			continue
		}
		if m.nodeUsed[NodeLocal] >= m.nodeCap[NodeLocal] {
			victim, ok := m.coldestPageOn(NodeLocal)
			if !ok || m.pageScore(victim) >= m.pageScore(p) {
				continue
			}
			m.movePage(victim, m.leastLoadedCXL())
			swaps++
		}
		m.movePage(p, NodeLocal)
		swaps++
	}
	return swaps
}

// DeviceAccessStdDev computes mean and standard deviation of lifetime
// per-CXL-device access counts (Fig 13(b)'s metric).
func (m *Manager) DeviceAccessStdDev() (mean, std float64) {
	xs := make([]float64, m.cfg.CXLNodes)
	for i := 0; i < m.cfg.CXLNodes; i++ {
		xs[i] = float64(m.nodeTot[FirstCXLNode+Node(i)])
	}
	return sim.MeanStd(xs)
}
