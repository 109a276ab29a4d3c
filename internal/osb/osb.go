// Package osb implements the PIFS-Rec on-switch buffer (§IV-A4): an SRAM
// cache inside the fabric switch that retains hot embedding-row vectors so
// repeated accesses skip the CXL I/O ports and device DRAM entirely. The
// headline replacement strategy is Hottest Recording (HTR) — an address
// profiler ranks row vectors by access frequency and the cache retains the
// highest-priority candidates — with LRU and FIFO available as the paper's
// comparison points (Fig 15).
package osb

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"

	"pifsrec/internal/sim"
)

// Policy selects the replacement strategy.
type Policy string

// Replacement policies evaluated in Fig 15.
const (
	HTR  Policy = "HTR"
	LRU  Policy = "LRU"
	FIFO Policy = "FIFO"
)

// MinCapacity and MaxCapacity bound the fabric switch's SRAM buffer per the
// paper's sweep (§VI-C5) and Fig 7 ("SRAM: 32KB~1MB"). The Buffer type
// itself accepts larger arrays (up to maxBufferBytes) because RecNMP-style
// DIMM caches aggregate rank-level capacity across many DIMMs.
const (
	MinCapacity = 32 << 10
	MaxCapacity = 1 << 20

	minBufferBytes = 4 << 10
	maxBufferBytes = 8 << 20

	// pageShift sets the page index's granularity: the 4 KiB migration page
	// of tier.PageBytes, keyed by an entry's base address.
	pageShift = 12
)

// Stats summarizes buffer behaviour.
type Stats struct {
	Hits      int64
	Misses    int64
	Inserts   int64
	Evictions int64
}

// HitRatio returns hits/(hits+misses), or zero before any access.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Buffer is the on-switch SRAM cache. Entries are whole row vectors keyed by
// their base address; capacity is accounted in bytes.
type Buffer struct {
	policy    Policy
	capacity  int
	used      int
	latencyNS sim.Tick

	entries map[uint64]*entry
	// pages heads, per 4 KiB page of base addresses, the list of cached
	// entries on that page, so a page invalidation visits only its rows.
	pages map[uint64]*entry
	// order is the eviction structure: a frequency min-heap for HTR, an
	// access-ordered queue for LRU, an insertion-ordered queue for FIFO.
	order entryHeap

	profiler *Profiler
	stats    Stats
	seq      uint64

	// freeEntries recycles evicted/invalidated entry structs so steady-state
	// insert/evict churn allocates nothing.
	freeEntries []*entry
	// victims is InvalidateRange's reused scratch list.
	victims []*entry
}

type entry struct {
	addr uint64
	size int
	// rank is the eviction key: access frequency for HTR, last-access
	// sequence for LRU, insertion sequence for FIFO. Smallest rank evicts
	// first.
	rank uint64
	heap int
	// prev and next link the entry into its page's list.
	prev, next *entry
}

type entryHeap []*entry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].rank < h[j].rank }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heap = i; h[j].heap = j }
func (h *entryHeap) Push(x any)        { e := x.(*entry); e.heap = len(*h); *h = append(*h, e) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Validate reports whether New accepts capacityBytes and policy: the
// capacity must lie in the supported SRAM range and the policy must be HTR,
// LRU or FIFO.
func Validate(capacityBytes int, policy Policy) error {
	if capacityBytes < minBufferBytes || capacityBytes > maxBufferBytes {
		return fmt.Errorf("osb: capacity %d outside SRAM range [%d, %d]",
			capacityBytes, minBufferBytes, maxBufferBytes)
	}
	switch policy {
	case HTR, LRU, FIFO:
		return nil
	}
	return fmt.Errorf("osb: unknown policy %q", policy)
}

// New builds a buffer. It panics on what Validate rejects.
func New(capacityBytes int, policy Policy) *Buffer {
	if err := Validate(capacityBytes, policy); err != nil {
		panic(err.Error())
	}
	return &Buffer{
		policy:    policy,
		capacity:  capacityBytes,
		latencyNS: latencyFor(capacityBytes),
		entries:   make(map[uint64]*entry),
		pages:     make(map[uint64]*entry),
		profiler:  NewProfiler(),
	}
}

// latencyFor interpolates the SRAM access time across the Table II range
// (0.91 ns at 32 KB up to 4.19 ns at 1 MB), rounded up to whole nanoseconds
// and extrapolated beyond it. Larger arrays are slower, which is what makes
// the 1 MB configuration a net loss in the paper's sweep.
func latencyFor(capacity int) sim.Tick {
	x := math.Log2(float64(capacity) / float64(MinCapacity)) // 0..5 in the SRAM range
	if x < 0 {
		x = 0
	}
	ns := 0.91 + x*(4.19-0.91)/5.0
	return sim.Tick(math.Ceil(ns))
}

// Capacity returns the configured byte capacity.
func (b *Buffer) Capacity() int { return b.capacity }

// Used returns the bytes currently cached.
func (b *Buffer) Used() int { return b.used }

// Policy returns the replacement strategy.
func (b *Buffer) Policy() Policy { return b.policy }

// LatencyNS returns the SRAM hit latency.
func (b *Buffer) LatencyNS() sim.Tick { return b.latencyNS }

// Stats returns a snapshot of the counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Len returns the number of cached vectors.
func (b *Buffer) Len() int { return len(b.entries) }

// Access looks up the row vector at addr (size bytes) and reports a hit.
// On a miss the vector becomes an insertion candidate under the configured
// policy. Access also feeds the address profiler.
func (b *Buffer) Access(addr uint64, size int) bool {
	if size <= 0 || size > b.capacity {
		panic(fmt.Sprintf("osb: access size %d invalid for capacity %d", size, b.capacity))
	}
	b.seq++
	freq := b.profiler.Record(addr)

	if e, ok := b.entries[addr]; ok {
		b.stats.Hits++
		switch b.policy {
		case HTR:
			e.rank = uint64(freq)
		case LRU:
			e.rank = b.seq
		case FIFO:
			// insertion order is immutable
		}
		heap.Fix(&b.order, e.heap)
		return true
	}

	b.stats.Misses++
	b.admit(addr, size, freq)
	return false
}

// Contains reports whether addr is cached, without touching any state.
func (b *Buffer) Contains(addr uint64) bool {
	_, ok := b.entries[addr]
	return ok
}

// admit applies the policy's insertion rule after a miss.
func (b *Buffer) admit(addr uint64, size int, freq uint32) {
	var rank uint64
	switch b.policy {
	case HTR:
		rank = uint64(freq)
	default:
		rank = b.seq
	}

	// Make room. HTR only evicts colder entries: if the victim is at least
	// as hot as the candidate, the candidate is not admitted — this is the
	// "retain highest-priority candidates based on access frequency" rule
	// and is what lets HTR resist scan thrashing.
	for b.used+size > b.capacity {
		if len(b.order) == 0 {
			return // vector larger than what remains; cannot cache
		}
		victim := b.order[0]
		if b.policy == HTR && victim.rank >= rank {
			return
		}
		b.remove(victim)
		b.stats.Evictions++
	}

	e := b.allocEntry()
	e.addr, e.size, e.rank = addr, size, rank
	heap.Push(&b.order, e)
	b.entries[addr] = e
	page := addr >> pageShift
	if head := b.pages[page]; head != nil {
		head.prev = e
		e.next = head
	}
	b.pages[page] = e
	b.used += size
	b.stats.Inserts++
}

// remove drops a cached entry from every structure that holds it — the
// eviction heap, the address map and its page list — and recycles it.
func (b *Buffer) remove(e *entry) {
	heap.Remove(&b.order, e.heap)
	delete(b.entries, e.addr)
	switch {
	case e.prev != nil:
		e.prev.next = e.next
	case e.next != nil:
		b.pages[e.addr>>pageShift] = e.next
	default:
		delete(b.pages, e.addr>>pageShift)
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	e.prev, e.next = nil, nil
	b.used -= e.size
	b.releaseEntry(e)
}

// allocEntry returns a recycled (or fresh) entry struct.
func (b *Buffer) allocEntry() *entry {
	if n := len(b.freeEntries); n > 0 {
		e := b.freeEntries[n-1]
		b.freeEntries[n-1] = nil
		b.freeEntries = b.freeEntries[:n-1]
		return e
	}
	return &entry{}
}

// releaseEntry returns a removed entry to the pool.
func (b *Buffer) releaseEntry(e *entry) { b.freeEntries = append(b.freeEntries, e) }

// Invalidate drops addr from the cache (used when migration moves a row),
// reporting whether it was present.
func (b *Buffer) Invalidate(addr uint64) bool {
	e, ok := b.entries[addr]
	if ok {
		b.remove(e)
	}
	return ok
}

// InvalidateRange drops every cached vector whose base address lies in
// [start, end) — one page-migration invalidation instead of a per-row loop.
// It returns the number of entries dropped. Only the page lists overlapping
// the range are walked, or every list when the range spans more pages than
// are occupied. Victims are removed in ascending address order so the
// eviction heap's internal layout (and therefore future tie-breaking) stays
// deterministic.
func (b *Buffer) InvalidateRange(start, end uint64) int {
	if len(b.entries) == 0 || start >= end {
		return 0
	}
	victims := b.victims[:0]
	collect := func(head *entry) {
		for e := head; e != nil; e = e.next {
			if e.addr >= start && e.addr < end {
				victims = append(victims, e)
			}
		}
	}
	first, last := start>>pageShift, (end-1)>>pageShift
	if last-first < uint64(len(b.pages)) {
		for p := first; p <= last; p++ {
			collect(b.pages[p])
		}
	} else {
		for _, head := range b.pages {
			collect(head)
		}
	}
	slices.SortFunc(victims, func(x, y *entry) int { return cmp.Compare(x.addr, y.addr) })
	for _, e := range victims {
		b.remove(e)
	}
	b.victims = victims[:0]
	return len(victims)
}

// Profiler is the address profiler of §IV-A4: it "logs and ranks frequently
// accessed row vectors". Counts saturate rather than wrap.
type Profiler struct {
	counts map[uint64]uint32
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{counts: make(map[uint64]uint32)}
}

// Record bumps the access count for addr and returns the new count.
func (p *Profiler) Record(addr uint64) uint32 {
	c := p.counts[addr]
	if c != math.MaxUint32 {
		c++
	}
	p.counts[addr] = c
	return c
}
