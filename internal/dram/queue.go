package dram

// reqRing is a per-channel circular queue of runs, held by value. The
// FR-FCFS scheduler only ever removes within its bounded lookahead (frWindow
// lines, so at most frWindow runs) or at the head, so removeAt shifts at
// most frWindow-1 entries. Capacity grows geometrically and is then reused
// forever: steady-state operation performs no allocation.
type reqRing struct {
	reqs []request // power-of-two length
	head int
	n    int
}

// grow doubles capacity (16 minimum), rewriting entries in queue order.
func (q *reqRing) grow() {
	c := len(q.reqs) * 2
	if c == 0 {
		c = 16
	}
	reqs := make([]request, c)
	for i := 0; i < q.n; i++ {
		reqs[i] = *q.at(i)
	}
	q.reqs = reqs
	q.head = 0
}

// push appends a run at the tail.
func (q *reqRing) push(r request) {
	if q.n == len(q.reqs) {
		q.grow()
	}
	q.reqs[(q.head+q.n)&(len(q.reqs)-1)] = r
	q.n++
}

// at returns the run at queue position i (0 = oldest).
func (q *reqRing) at(i int) *request {
	return &q.reqs[(q.head+i)&(len(q.reqs)-1)]
}

// removeAt deletes the run at position i by shifting the i runs in front of
// it one slot toward the tail and advancing head — i is bounded by the
// FR-FCFS window, so this is constant-time.
func (q *reqRing) removeAt(i int) {
	mask := len(q.reqs) - 1
	for ; i > 0; i-- {
		q.reqs[(q.head+i)&mask] = q.reqs[(q.head+i-1)&mask]
	}
	q.head = (q.head + 1) & mask
	q.n--
}
