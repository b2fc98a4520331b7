package sim

import "math"

// calQueue is the pending-event structure behind Env: a single-level
// ladder / calendar queue specialized for the timer populations a disk
// farm generates (many near-uniform arrival and spin timers, a thin
// tail of far-future events).
//
// Layout. Events live in one of three regions ordered by time:
//
//	bottom  — a small binary min-heap on (at, seq) holding every event
//	          with at < bottomMax; pop and peek read its root.
//	rungs   — numRungs append-only buckets of *unsorted* events
//	          covering [rungBase, rungEnd) at fixed width rungW. A
//	          bucket is sorted at most once, by being dumped into the
//	          bottom heap when the clock reaches it.
//	top     — one unsorted slice for everything at or past rungEnd.
//
// Push is O(1) for rung and top placements and O(log b) for the (small)
// bottom heap; pop is O(log b) amortized plus each event's single
// bucket→bottom move. When bottom and rungs drain, the queue re-seeds:
// it measures the top's span, picks a fresh bucket width, and deals the
// top into new rungs — so the width adapts to whatever timer
// distribution the simulation is currently generating. Against the
// former global binary heap this removes the O(log n) scatter-gather on
// every operation: the heap only ever holds events of the current
// bucket, not the whole pending set.
//
// Ordering. The pop order is exactly the global (at, seq) order the
// binary heap produced, which is what the simulator's byte-identity
// guarantee rests on: region boundaries are time partitions (bottom <
// bucket k < bucket k+1 < top holds as at-ranges), equal-time events
// always land in the same region, and the bottom heap breaks ties by
// seq. The legacy kernel (NewLegacyHeapEnv) pins bottomMax to +Inf,
// collapsing the structure to the plain binary heap the property tests
// compare against.
//
// Cancellation is eager: remove() unlinks an event from whichever
// region holds it in O(1) (rungs, top: swap-with-last) or O(log b)
// (bottom), so cancelled events occupy no queue slot — a spin-down
// timer cancelled by an arrival is reclaimed at cancel time, keeping
// the queue length equal to the live event count under timer churn.
type calQueue struct {
	bottom    []*node
	bottomMax Time // exclusive bound of the bottom region; +Inf = legacy heap mode

	rungs    [numRungs][]*node
	rungCnt  int  // events across all rungs
	cur      int  // next rung to drain
	rungBase Time // start of rung 0's range, fixed for the epoch
	rungW    Time // bucket width; 0 = rungs inactive (before first re-seed)

	top  []*node
	size int
}

// numRungs is the bucket count dealt at every re-seed. 256 keeps the
// per-Env footprint at a few KiB of slice headers while making the
// expected bucket population (pending events / numRungs) small enough
// that the bottom heap stays cache-resident.
const numRungs = 256

// where values: a node is in the bottom heap, a rung (where = rung
// index), the top, or nowhere (free / fired / cancelled).
const (
	whereNone   int32 = -1
	whereBottom int32 = -2
	whereTop    int32 = -3
)

// bucketStart returns the inclusive lower bound of rung j. Every
// boundary the queue ever compares against is computed through this one
// expression — never through an accumulated running sum — so a given
// timestamp maps to the same bucket no matter when in the epoch it is
// pushed. (An accumulated rungStart drifts: two events with the *same*
// timestamp pushed at different drain positions could land in different
// buckets, and the earlier bucket would fire first, breaking the seq
// tie-break.)
func (q *calQueue) bucketStart(j int) Time { return q.rungBase + Time(j)*q.rungW }

// rungEnd returns the exclusive bound of the rung region.
func (q *calQueue) rungEnd() Time { return q.bucketStart(numRungs) }

// push files a node into the region owning its timestamp.
func (q *calQueue) push(n *node) {
	q.size++
	switch {
	case n.at < q.bottomMax:
		q.bottomPush(n)
	case q.rungW > 0 && n.at < q.rungEnd():
		q.rungPush(n)
	default:
		n.where = whereTop
		n.slot = int32(len(q.top))
		q.top = append(q.top, n)
	}
}

// rungPush places a node into the bucket covering n.at. Callers
// guarantee bottomMax <= n.at < rungEnd().
func (q *calQueue) rungPush(n *node) {
	j := int((n.at - q.rungBase) / q.rungW)
	// The float division only approximates the bucket index, and both
	// error directions break ordering: rounding *up* puts the event in
	// a bucket that drains after its timestamp; rounding *down* dumps
	// it into the bottom heap a bucket early with at >= bottomMax,
	// where it would fire ahead of a smaller-timestamp event still
	// waiting in its rung. Bracket j so that, in the exact float
	// arithmetic bucketStart uses, start(j) <= at < start(j+1) (the
	// upper bound degenerates to rungEnd for the last bucket, which
	// push already checked).
	if j > numRungs-1 {
		j = numRungs - 1
	}
	if j < q.cur {
		j = q.cur // at >= bottomMax = start(cur), so cur is a valid home
	}
	for j > q.cur && q.bucketStart(j) > n.at {
		j--
	}
	for j < numRungs-1 && q.bucketStart(j+1) <= n.at {
		j++
	}
	n.where = int32(j)
	n.slot = int32(len(q.rungs[j]))
	q.rungs[j] = append(q.rungs[j], n)
	q.rungCnt++
}

// ensure makes the bottom heap non-empty, draining rungs and
// re-seeding from the top as needed. It returns false when the queue
// is empty.
func (q *calQueue) ensure() bool {
	for len(q.bottom) == 0 {
		switch {
		case q.rungCnt > 0:
			q.drainNextRung()
		case len(q.top) > 0:
			q.reseed()
		default:
			return false
		}
	}
	return true
}

// drainNextRung advances to the next non-empty bucket and dumps it
// into the bottom heap, moving bottomMax to the bucket's end.
func (q *calQueue) drainNextRung() {
	for len(q.rungs[q.cur]) == 0 {
		q.cur++
	}
	b := q.rungs[q.cur]
	q.rungs[q.cur] = b[:0] // keep the bucket's capacity for later epochs
	q.rungCnt -= len(b)
	q.cur++
	q.bottomMax = q.bucketStart(q.cur)
	for i, n := range b {
		b[i] = nil // don't pin drained nodes through the retained array
		q.bottomPush(n)
	}
}

// sparseTop is the top size below which reseed skips bucketing. With
// only a handful of events pending (a small farm between arrivals),
// dealing them over numRungs buckets makes every drain walk a run of
// empty buckets, which costs far more than the few O(log b) heap
// inserts it saves.
const sparseTop = 64

// reseed deals the unsorted top into a fresh set of rungs sized to the
// top's observed span — the width-adaptation step of the calendar
// queue. Sparse tops (fewer than sparseTop events) and degenerate
// spans (all equal, or non-finite timestamps) fall back to dumping the
// top straight into the bottom heap, which is always correct.
func (q *calQueue) reseed() {
	tmin, tmax := q.top[0].at, q.top[0].at
	for _, n := range q.top[1:] {
		if n.at < tmin {
			tmin = n.at
		}
		if n.at > tmax {
			tmax = n.at
		}
	}
	batch := q.top
	q.top = q.top[:0]
	w := (tmax - tmin) / Time(numRungs-1)
	if len(batch) < sparseTop || w <= 0 || math.IsInf(w, 1) || math.IsNaN(w) {
		// Sparse top, zero span or unrepresentable width: no bucketing
		// worth doing. Disable rung routing (stale epoch boundaries
		// must not claim new pushes) and dump the batch into the
		// bottom heap. The new
		// bound must be *strictly* above tmax — bottomMax is exclusive,
		// and the batch includes events at tmax, so a later push at
		// exactly tmax has to reach the bottom heap where seq breaks
		// the tie (reserved FIFO positions make smaller-seq-pushed-later
		// a real case). Nextafter is the tightest such bound; it maps
		// +Inf to +Inf, pinning non-finite timestamps to pure heap mode.
		q.rungW = 0
		q.bottomMax = math.Nextafter(tmax, math.Inf(1))
		for _, n := range batch {
			q.bottomPush(n)
		}
		return
	}
	q.cur = 0
	q.rungBase = tmin
	q.rungW = w
	q.bottomMax = tmin
	q.rungCnt = 0
	for _, n := range batch {
		q.rungPush(n)
	}
}

// pop removes and returns the earliest live event, or nil.
func (q *calQueue) pop() *node {
	if !q.ensure() {
		return nil
	}
	n := q.bottom[0]
	q.bottomRemove(0)
	n.where = whereNone
	q.size--
	return n
}

// peek returns the earliest live event without removing it, or nil.
func (q *calQueue) peek() *node {
	if !q.ensure() {
		return nil
	}
	return q.bottom[0]
}

// remove unlinks a live node from whichever region holds it (the eager
// half of Cancel). The caller recycles the node.
func (q *calQueue) remove(n *node) {
	switch n.where {
	case whereBottom:
		q.bottomRemove(int(n.slot))
	case whereTop:
		q.swapRemove(&q.top, int(n.slot))
	case whereNone:
		return
	default:
		r := int(n.where)
		q.swapRemove(&q.rungs[r], int(n.slot))
		q.rungCnt--
	}
	n.where = whereNone
	q.size--
}

// swapRemove deletes slot i from an unsorted bucket, patching the
// moved node's slot index.
func (q *calQueue) swapRemove(s *[]*node, i int) {
	b := *s
	last := len(b) - 1
	if i != last {
		b[i] = b[last]
		b[i].slot = int32(i)
	}
	b[last] = nil
	*s = b[:last]
}

// less orders the bottom heap by (at, seq): time first, scheduling
// order within a timestamp (the FIFO tie-break the determinism
// guarantee depends on).
func (q *calQueue) less(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// bottomPush inserts into the bottom heap.
func (q *calQueue) bottomPush(n *node) {
	n.where = whereBottom
	i := len(q.bottom)
	n.slot = int32(i)
	q.bottom = append(q.bottom, n)
	q.siftUp(i)
}

// bottomRemove deletes heap slot i (the root for pop, any slot for
// Cancel), restoring the heap property around the hole.
func (q *calQueue) bottomRemove(i int) {
	last := len(q.bottom) - 1
	if i != last {
		q.bottom[i] = q.bottom[last]
		q.bottom[i].slot = int32(i)
	}
	q.bottom[last] = nil
	q.bottom = q.bottom[:last]
	if i < last {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
}

func (q *calQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.bottom[i], q.bottom[parent]) {
			break
		}
		q.bottom[i], q.bottom[parent] = q.bottom[parent], q.bottom[i]
		q.bottom[i].slot = int32(i)
		q.bottom[parent].slot = int32(parent)
		i = parent
	}
}

// siftDown reports whether the node at i moved.
func (q *calQueue) siftDown(i int) bool {
	moved := false
	n := len(q.bottom)
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		best := left
		if right := left + 1; right < n && q.less(q.bottom[right], q.bottom[left]) {
			best = right
		}
		if !q.less(q.bottom[best], q.bottom[i]) {
			return moved
		}
		q.bottom[i], q.bottom[best] = q.bottom[best], q.bottom[i]
		q.bottom[i].slot = int32(i)
		q.bottom[best].slot = int32(best)
		i = best
		moved = true
	}
}
