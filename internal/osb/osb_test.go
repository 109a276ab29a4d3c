package osb

import (
	"container/heap"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"pifsrec/internal/sim"
)

func TestHitMissBasics(t *testing.T) {
	b := New(MinCapacity, LRU)
	if b.Access(0x1000, 64) {
		t.Fatal("first access hit an empty cache")
	}
	if !b.Access(0x1000, 64) {
		t.Fatal("second access missed")
	}
	st := b.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", got)
	}
}

func TestCapacityAccounting(t *testing.T) {
	b := New(MinCapacity, FIFO)
	n := MinCapacity / 64
	for i := 0; i < n; i++ {
		b.Access(uint64(i*64), 64)
	}
	if b.Used() != MinCapacity || b.Len() != n {
		t.Fatalf("used=%d len=%d, want full", b.Used(), b.Len())
	}
	// One more distinct vector forces an eviction under FIFO.
	b.Access(uint64(n*64), 64)
	if b.Used() != MinCapacity {
		t.Fatalf("used=%d after eviction, want %d", b.Used(), MinCapacity)
	}
	if b.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", b.Stats().Evictions)
	}
	if b.Contains(0) {
		t.Fatal("FIFO did not evict the oldest entry")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	b := New(MinCapacity, LRU)
	n := MinCapacity / 64
	for i := 0; i < n; i++ {
		b.Access(uint64(i*64), 64)
	}
	// Touch entry 0 so it becomes most-recent.
	b.Access(0, 64)
	// Insert a new entry; the victim must be entry 1, not entry 0.
	b.Access(uint64(n*64), 64)
	if !b.Contains(0) {
		t.Fatal("LRU evicted the most recently used entry")
	}
	if b.Contains(64) {
		t.Fatal("LRU kept the least recently used entry")
	}
}

func TestFIFOIgnoresReuse(t *testing.T) {
	b := New(MinCapacity, FIFO)
	n := MinCapacity / 64
	for i := 0; i < n; i++ {
		b.Access(uint64(i*64), 64)
	}
	// Heavy reuse of entry 0 must not save it under FIFO.
	for i := 0; i < 100; i++ {
		b.Access(0, 64)
	}
	b.Access(uint64(n*64), 64)
	if b.Contains(0) {
		t.Fatal("FIFO honoured recency")
	}
}

func TestHTRKeepsHotEntries(t *testing.T) {
	b := New(MinCapacity, HTR)
	n := MinCapacity / 64
	// Fill and make every resident entry hot (frequency 3).
	for r := 0; r < 3; r++ {
		for i := 0; i < n; i++ {
			b.Access(uint64(i*64), 64)
		}
	}
	// A one-shot scan of cold addresses must not displace hot content.
	evBefore := b.Stats().Evictions
	for i := 0; i < n; i++ {
		b.Access(uint64((n+i)*64), 64)
	}
	if b.Stats().Evictions != evBefore {
		t.Fatalf("HTR evicted %d hot entries for a cold scan", b.Stats().Evictions-evBefore)
	}
	if !b.Contains(0) {
		t.Fatal("hot entry lost")
	}
}

func TestHTRAdmitsHotterCandidate(t *testing.T) {
	b := New(MinCapacity, HTR)
	n := MinCapacity / 64
	for i := 0; i < n; i++ {
		b.Access(uint64(i*64), 64) // all frequency 1
	}
	hot := uint64((n + 1) * 64)
	// Access the candidate repeatedly: once its profiled frequency exceeds
	// the coldest resident, it must be admitted.
	for i := 0; i < 3; i++ {
		b.Access(hot, 64)
	}
	if !b.Contains(hot) {
		t.Fatal("hotter candidate never admitted")
	}
}

func TestHTRBeatsLRUOnZipf(t *testing.T) {
	// The paper's motivating result: on skewed embedding traffic with an
	// irregular scan mixed in, frequency ranking beats recency (Fig 15).
	run := func(p Policy) float64 {
		b := New(64<<10, p)
		rng := sim.NewRNG(42)
		z := sim.NewZipf(rng, 1<<16, 1.05)
		for i := 0; i < 200000; i++ {
			var addr uint64
			if i%4 == 3 {
				// cold scan component
				addr = uint64(1<<24) + uint64(i)*64
			} else {
				addr = uint64(z.Draw()) * 64
			}
			b.Access(addr, 64)
		}
		return b.Stats().HitRatio()
	}
	htr, lru, fifo := run(HTR), run(LRU), run(FIFO)
	if htr <= lru {
		t.Errorf("HTR hit ratio %.3f not above LRU %.3f", htr, lru)
	}
	if htr <= fifo {
		t.Errorf("HTR hit ratio %.3f not above FIFO %.3f", htr, fifo)
	}
}

func TestLatencyGrowsWithCapacity(t *testing.T) {
	small := New(MinCapacity, HTR).LatencyNS()
	large := New(MaxCapacity, HTR).LatencyNS()
	if small < 1 {
		t.Fatalf("32KB latency %d < 1 ns", small)
	}
	if large <= small {
		t.Fatalf("1MB latency %d not above 32KB latency %d", large, small)
	}
	if large > 5 {
		t.Fatalf("1MB latency %d ns outside Table II range", large)
	}
}

func TestInvalidate(t *testing.T) {
	b := New(MinCapacity, LRU)
	b.Access(0x40, 64)
	if !b.Invalidate(0x40) {
		t.Fatal("invalidate missed a cached entry")
	}
	if b.Contains(0x40) || b.Used() != 0 {
		t.Fatal("entry survived invalidation")
	}
	if b.Invalidate(0x40) {
		t.Fatal("double invalidation reported success")
	}
}

func TestOversizedVectorNeverCached(t *testing.T) {
	b := New(MinCapacity, LRU)
	defer func() {
		if recover() == nil {
			t.Error("access larger than capacity accepted")
		}
	}()
	b.Access(0, MinCapacity+64)
}

func TestBadConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { New(minBufferBytes-1, HTR) },
		func() { New(maxBufferBytes+1, HTR) },
		func() { New(MinCapacity, Policy("CLOCK")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction accepted")
				}
			}()
			f()
		}()
	}
}

func TestUsedNeverExceedsCapacityProperty(t *testing.T) {
	f := func(addrs []uint16, pol uint8) bool {
		policies := []Policy{HTR, LRU, FIFO}
		b := New(MinCapacity, policies[int(pol)%3])
		for _, a := range addrs {
			size := 64 << (a % 3) // 64/128/256 B vectors
			b.Access(uint64(a)*64, size)
			if b.Used() > b.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProfilerDecay(t *testing.T) {
	p := NewProfiler()
	for i := 0; i < 8; i++ {
		p.Record(0x100)
	}
	p.Record(0x200)
	p.Decay()
	if got := p.Count(0x100); got != 4 {
		t.Fatalf("decayed count = %d, want 4", got)
	}
	if p.Count(0x200) != 0 {
		t.Fatal("count of 1 should decay to zero")
	}
	if p.Tracked() != 1 {
		t.Fatalf("Tracked = %d, want 1 after decay", p.Tracked())
	}
}

func TestMixedVectorSizes(t *testing.T) {
	b := New(MinCapacity, LRU)
	b.Access(0, 128)
	b.Access(1024, 256)
	if b.Used() != 384 {
		t.Fatalf("Used = %d, want 384", b.Used())
	}
	if !b.Access(0, 128) || !b.Access(1024, 256) {
		t.Fatal("mixed-size entries not retrievable")
	}
}

func TestInvalidateRange(t *testing.T) {
	b := New(MinCapacity, LRU)
	for _, a := range []uint64{0x0, 0x40, 0xfc0, 0x1000, 0x1040, 0x3000} {
		b.Access(a, 64)
	}
	for _, c := range []struct {
		start, end uint64
		want       int
	}{
		{0x40, 0x40, 0},   // empty
		{0x1000, 0x40, 0}, // inverted
		{0x40, 0x41, 1},   // sub-row: base address only
		{0xf80, 0x1040, 2},
		{0x2000, 0x3000, 0}, // end is exclusive
		{0, math.MaxUint64, 3},
	} {
		if got := b.InvalidateRange(c.start, c.end); got != c.want {
			t.Fatalf("InvalidateRange(%#x, %#x) = %d, want %d", c.start, c.end, got, c.want)
		}
		checkPageIndex(t, b)
	}
	if b.Len() != 0 || b.Used() != 0 || len(b.pages) != 0 {
		t.Fatalf("len=%d used=%d pages=%d after clearing", b.Len(), b.Used(), len(b.pages))
	}
	if b.InvalidateRange(0, math.MaxUint64) != 0 {
		t.Fatal("empty buffer reported invalidations")
	}
}

// refInvalidateRange is the full-scan InvalidateRange the page index
// replaced: it ranges over every cached entry. The differential test holds
// the page-indexed path to it.
func refInvalidateRange(b *Buffer, start, end uint64) int {
	if len(b.entries) == 0 || start >= end {
		return 0
	}
	var victims []uint64
	for addr := range b.entries {
		if addr >= start && addr < end {
			victims = append(victims, addr)
		}
	}
	slices.Sort(victims)
	for _, addr := range victims {
		b.remove(b.entries[addr])
	}
	return len(victims)
}

// checkPageIndex asserts that every cached entry sits on exactly the page
// list of its base address, with consistent back links and no empty list.
func checkPageIndex(t *testing.T, b *Buffer) {
	t.Helper()
	n := 0
	for page, head := range b.pages {
		if head == nil || head.prev != nil {
			t.Fatalf("page %#x: bad list head", page)
		}
		for e := head; e != nil; e = e.next {
			if e.addr>>pageShift != page || b.entries[e.addr] != e {
				t.Fatalf("entry %#x on page list %#x", e.addr, page)
			}
			if e.next != nil && e.next.prev != e {
				t.Fatalf("entry %#x: broken back link", e.addr)
			}
			n++
		}
	}
	if n != len(b.entries) {
		t.Fatalf("page lists hold %d entries, map holds %d", n, len(b.entries))
	}
}

// evictionOrder returns the order in which b's current entries would be
// evicted, draining a copy of the heap.
func evictionOrder(b *Buffer) []uint64 {
	h := make(entryHeap, len(b.order))
	for i, e := range b.order {
		c := *e
		h[i] = &c
	}
	out := make([]uint64, 0, len(h))
	for h.Len() > 0 {
		out = append(out, heap.Pop(&h).(*entry).addr)
	}
	return out
}

// randomRange draws an invalidation range over the pages in pool: sub-page,
// page-straddling, multi-page, the whole address space, empty, inverted, or
// between two arbitrary pool addresses.
func randomRange(rng *sim.RNG, pool []uint64) (start, end uint64) {
	const page = 1 << pageShift
	base := pool[rng.Intn(len(pool))] &^ (page - 1)
	off := uint64(rng.Intn(page))
	switch rng.Intn(7) {
	case 0:
		return base + off, base + off + uint64(rng.Intn(page-int(off))) + 1
	case 1:
		return base + off, base + page + uint64(rng.Intn(page))
	case 2:
		return base + off, base + uint64(2+rng.Intn(6))*page + uint64(rng.Intn(page))
	case 3:
		return 0, math.MaxUint64
	case 4:
		return base + off, base + off
	case 5:
		return base + off + 1, base + off
	default:
		return pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
	}
}

// TestInvalidateRangeMatchesFullScan drives a page-indexed buffer and a
// full-scan reference through the same random Access / Invalidate /
// InvalidateRange sequences and requires them to stay indistinguishable:
// same return values, occupancy, counters and contents after every step,
// and the same subsequent eviction sequence. The last check pins the heap
// layout, which decides ties, and is why victims are removed in address
// order.
func TestInvalidateRangeMatchesFullScan(t *testing.T) {
	// 64 B rows over 16 low pages plus the top two pages of the address
	// space: twice the buffer's capacity, so evictions interleave with
	// invalidations, and ranges that end at math.MaxUint64 stay in play.
	var pool []uint64
	for a := uint64(0); a < 16<<pageShift; a += 64 {
		pool = append(pool, a)
	}
	for a := uint64(math.MaxUint64) - 2<<pageShift + 1; a != 0; a += 64 {
		pool = append(pool, a)
	}
	for _, pol := range []Policy{HTR, LRU, FIFO} {
		t.Run(string(pol), func(t *testing.T) {
			for seed := uint64(1); seed <= 6; seed++ {
				rng := sim.NewRNG(seed)
				got, want := New(MinCapacity, pol), New(MinCapacity, pol)
				for step := 0; step < 1000; step++ {
					var g, w int
					var op string
					switch r := rng.Intn(10); {
					case r < 7:
						a, size := pool[rng.Intn(len(pool))], 64<<rng.Intn(3)
						op = "Access"
						if got.Access(a, size) {
							g = 1
						}
						if want.Access(a, size) {
							w = 1
						}
					case r < 8:
						a := pool[rng.Intn(len(pool))]
						op = "Invalidate"
						if got.Invalidate(a) {
							g = 1
						}
						if want.Invalidate(a) {
							w = 1
						}
					default:
						start, end := randomRange(rng, pool)
						op = "InvalidateRange"
						g, w = got.InvalidateRange(start, end), refInvalidateRange(want, start, end)
					}
					if g != w || got.Len() != want.Len() || got.Used() != want.Used() || got.Stats() != want.Stats() {
						t.Fatalf("seed %d step %d %s: got (%d, len %d, used %d, %+v), want (%d, len %d, used %d, %+v)",
							seed, step, op, g, got.Len(), got.Used(), got.Stats(), w, want.Len(), want.Used(), want.Stats())
					}
					for _, a := range pool {
						if got.Contains(a) != want.Contains(a) {
							t.Fatalf("seed %d step %d %s: Contains(%#x) differs", seed, step, op, a)
						}
					}
					checkPageIndex(t, got)
					if !slices.Equal(evictionOrder(got), evictionOrder(want)) {
						t.Fatalf("seed %d step %d %s: eviction sequences differ", seed, step, op)
					}
				}
			}
		})
	}
}

func TestInvalidateRangeSteadyStateZeroAlloc(t *testing.T) {
	// 128 pages of 64 B rows fill a 512 KB buffer exactly. Each run drops
	// one page and refills it, so the buffer stays full.
	b := New(512<<10, HTR)
	const pages = (512 << 10) >> pageShift
	fill := func(p uint64) {
		for a := p << pageShift; a < (p+1)<<pageShift; a += 64 {
			b.Access(a, 64)
		}
	}
	for p := uint64(0); p < pages; p++ {
		fill(p)
	}
	if b.Used() != b.Capacity() {
		t.Fatalf("used %d of %d after fill", b.Used(), b.Capacity())
	}
	var p uint64
	allocs := testing.AllocsPerRun(500, func() {
		start := p << pageShift
		if n := b.InvalidateRange(start, start+1<<pageShift); n != 1<<pageShift/64 {
			t.Fatalf("page %d: dropped %d rows", p, n)
		}
		fill(p)
		p = (p + 1) % pages
	})
	if allocs != 0 {
		t.Fatalf("InvalidateRange + refill allocates %.1f times per page", allocs)
	}
}
