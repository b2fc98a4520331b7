package storage

import (
	"fmt"
	"math"

	"diskpack/internal/disk"
	"diskpack/internal/obs"
	"diskpack/internal/sim"
	"diskpack/internal/stats"
	"diskpack/internal/trace"
)

// Windowed telemetry: the observe half of the online control loop
// (internal/control). RunStream executes exactly the simulation Run
// executes — the event order is untouched, so a run with a do-nothing
// observer is byte-identical to Run — but advances the clock in
// epoch-length windows and emits a Window snapshot at every boundary:
// per-group arrival and completion counts, response-time quantiles,
// energy, spin transitions, standby time, and an idle-gap histogram.
// The observer may actuate between windows through RunControl
// (mid-run reallocation; spin thresholds actuate through the policy
// objects the caller owns), which is the decide→actuate half.
//
// This file holds the telemetry schema and the per-shard machinery —
// one machine per shard, each with its own sim.Env, disks, and window
// accumulator. The runner that owns the shared state (placement map,
// migration ledger, window assembly) and coordinates shards lives in
// parallel.go; a sequential run is simply a runner with one shard.

// IdleGapBuckets returns the upper bounds, in seconds, of the idle-gap
// histogram buckets (the last bucket is unbounded). Log-spaced around
// the Table 2 drive's 53.3 s break-even time, so a controller can read
// "how many gaps would a threshold of X have converted to standby"
// straight off the histogram.
func IdleGapBuckets() []float64 {
	return []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
}

// idleGapBucket returns the histogram slot for a gap length.
func idleGapBucket(gap float64) int {
	bounds := idleGapBounds
	for i, b := range bounds {
		if gap <= b {
			return i
		}
	}
	return len(bounds)
}

var idleGapBounds = IdleGapBuckets()

// RespBuckets returns the upper bounds, in seconds, of the
// response-time histogram buckets (the last bucket is unbounded).
// The grid is anchored on the Table 2 drive's 15 s spin-up time, so a
// tail-budget controller can count "responses that paid a spin-up"
// exactly: a request stalled behind a wake-up takes > 15 s, and 15 is
// a bucket bound.
func RespBuckets() []float64 {
	return []float64{0.1, 0.2, 0.5, 1, 2, 5, 10, 15, 20, 30, 60, 120, 300, 900}
}

var respBounds = RespBuckets()

// respBucket returns the histogram slot for a response time.
func respBucket(rt float64) int {
	for i, b := range respBounds {
		if rt <= b {
			return i
		}
	}
	return len(respBounds)
}

// GroupWindow is one disk group's share of a telemetry window.
type GroupWindow struct {
	// Group is the group index (-1 for the farm-wide total).
	Group int
	// Disks is the number of drives in the group.
	Disks int
	// Arrivals counts requests dispatched toward the group's disks
	// during the window (cache hits included — the request targeted the
	// group even if the cache absorbed it).
	Arrivals int64
	// Completed counts requests finished during the window (cache hits
	// included, at zero response time).
	Completed int64
	// Response-time distribution over the window's completions, seconds.
	RespMean, RespP50, RespP95, RespP99, RespMax float64
	// Energy is the group's consumption during the window, joules.
	Energy float64
	// Spin transitions during the window.
	SpinUps, SpinDowns int
	// StandbyTime is disk-seconds spent in standby during the window.
	StandbyTime float64
	// IdleGaps is the histogram of idle-gap lengths closed during the
	// window (a gap is closed by the arrival ending it); bucket bounds
	// are IdleGapBuckets, plus one overflow bucket.
	IdleGaps []int64
	// RespHist is the histogram of the window's completion response
	// times; bucket bounds are RespBuckets, plus one overflow bucket.
	// Quantiles interpolate; the histogram counts exactly — a
	// tail-budget controller reads "completions over budget" off it.
	RespHist []int64
	// Threshold is the group's spin-down threshold at the window
	// boundary, filled by the farm layer for tunable groups (zero
	// otherwise — storage does not know the policies' internals).
	Threshold float64
}

// Window is one epoch's telemetry snapshot. Snapshots are
// double-buffered: the Window passed to an observer is valid until the
// next-but-one window boundary, after which its storage is reused. An
// observer that only reads within its OnWindow call needs nothing
// special; one that retains windows across epochs must Clone them.
type Window struct {
	// Index numbers windows from zero.
	Index int
	// Start and End bound the window in simulated seconds.
	Start, End float64
	// Final marks the window that reaches the horizon.
	Final bool
	// Groups holds one entry per disk group.
	Groups []GroupWindow
	// Total is the farm-wide aggregate (Group = -1).
	Total GroupWindow
	// Cache activity during the window (zero without a cache).
	CacheHits, CacheMisses int64
	// Migration accounting for reallocations actuated since the
	// previous window.
	MigrationEnergy float64
	MigratedFiles   int64
	MigratedBytes   int64
	// Reliability accounting since the previous window (zero without
	// Config.Reliability): disk failures detected, failures that struck
	// an already-degraded group, rebuilds completed, and degraded time
	// booked by those completions.
	Failures       int
	DataLossEvents int
	Rebuilds       int
	RebuildTime    float64
}

// Clone returns a deep copy of the window that shares no storage with
// the double-buffered snapshot, safe to retain indefinitely.
func (w *Window) Clone() *Window {
	c := *w
	c.Groups = make([]GroupWindow, len(w.Groups))
	copy(c.Groups, w.Groups)
	for g := range c.Groups {
		c.Groups[g].IdleGaps = append([]int64(nil), w.Groups[g].IdleGaps...)
		c.Groups[g].RespHist = append([]int64(nil), w.Groups[g].RespHist...)
	}
	c.Total.IdleGaps = append([]int64(nil), w.Total.IdleGaps...)
	c.Total.RespHist = append([]int64(nil), w.Total.RespHist...)
	return &c
}

// StreamConfig parameterizes a windowed run.
type StreamConfig struct {
	// Epoch is the window length in seconds (> 0).
	Epoch float64
	// GroupOf maps disk → group index; nil puts every disk in group 0.
	// Group indices must be dense from zero.
	GroupOf []int
	// OnWindow is called at every epoch boundary with the window just
	// closed and the actuation handle. Returning an error aborts the
	// run. The snapshot is immutable history, valid until the
	// next-but-one boundary (double-buffered — Clone to retain);
	// actuations apply to the simulation from the boundary onward.
	OnWindow func(w *Window, ctl *RunControl) error
}

// validate resolves defaults against a farm size.
func (sc *StreamConfig) validate(numDisks int) error {
	if !(sc.Epoch > 0) || math.IsNaN(sc.Epoch) {
		return fmt.Errorf("storage: stream epoch %v must be positive", sc.Epoch)
	}
	if sc.GroupOf != nil && len(sc.GroupOf) != numDisks {
		return fmt.Errorf("storage: GroupOf covers %d disks, farm has %d", len(sc.GroupOf), numDisks)
	}
	for d, g := range sc.GroupOf {
		if g < 0 {
			return fmt.Errorf("storage: disk %d in negative group %d", d, g)
		}
	}
	return nil
}

// RunControl is the actuation surface handed to the window observer.
// Its methods apply at the window boundary, before any further
// simulated time passes — the shards are parked at the boundary while
// the observer runs, so boundary mutations are seen by every shard
// exactly from the next window on, sequentially and in parallel alike.
type RunControl struct {
	r *runner
}

// Assign returns a copy of the live file→disk map (Unplaced for files
// not yet written).
func (c *RunControl) Assign() []int {
	return append([]int(nil), c.r.place...)
}

// Realloc replaces the live file→disk map: files whose disk changes
// are "migrated" at a modeled cost — a read at the source plus a write
// at the target, each at that drive's transfer rate and active power —
// charged to the run's energy (and reported per window), not to
// request response times; like the reorg engine, migration is assumed
// to ride quiet periods. Placed files must stay placed and unplaced
// files unplaced, every target must be inside the farm, and no disk
// may be overfilled; a violating assignment is rejected whole. Requests
// already queued on the old disks finish there; arrivals from the
// boundary on follow the new map.
func (c *RunControl) Realloc(assign []int) (moved int, movedBytes int64, err error) {
	r := c.r
	if len(assign) != len(r.place) {
		return 0, 0, fmt.Errorf("storage: realloc covers %d files, trace has %d", len(assign), len(r.place))
	}
	free := make([]int64, r.cfg.NumDisks)
	for d := range free {
		free[d] = r.cfg.paramsFor(d).CapacityBytes
	}
	var energy float64
	crossShard := false
	for f, d := range assign {
		old := r.place[f]
		switch {
		case old < 0 && d != Unplaced:
			return 0, 0, fmt.Errorf("storage: realloc places unwritten file %d (write policy owns it)", f)
		case old >= 0 && (d < 0 || d >= r.cfg.NumDisks):
			return 0, 0, fmt.Errorf("storage: realloc sends file %d to disk %d outside farm of %d", f, d, r.cfg.NumDisks)
		}
		if d >= 0 {
			free[d] -= r.tr.Files[f].Size
		}
		if old >= 0 && d != old {
			size := r.tr.Files[f].Size
			moved++
			movedBytes += size
			src, dst := r.cfg.paramsFor(old), r.cfg.paramsFor(d)
			energy += float64(size)/src.TransferRate*src.ActivePower +
				float64(size)/dst.TransferRate*dst.ActivePower
			if r.shardOf != nil && r.shardOf[old] != r.shardOf[d] {
				crossShard = true
			}
		}
	}
	for d, b := range free {
		if b < 0 {
			return 0, 0, fmt.Errorf("storage: realloc overfills disk %d by %d bytes", d, -b)
		}
	}
	copy(r.place, assign)
	copy(r.freeBytes, free)
	r.migrationEnergy += energy
	r.migratedFiles += int64(moved)
	r.migratedBytes += movedBytes
	if o := r.cfg.Obs; moved > 0 && o != nil && o.Trace != nil {
		// Realloc only runs at a window boundary with every shard
		// parked, so the boundary clock is shard 0's clock.
		o.Trace.Emit(obs.TraceEvent{
			Phase: 'i', Track: "control", Name: "migration",
			At: float64(r.shards[0].env.Now()),
			Args: map[string]any{
				"files": moved, "bytes": movedBytes, "energyJ": energy,
			},
		})
	}
	// A file that crossed a shard boundary changes which shard's
	// arrival chain owns its future requests; the runner rescans every
	// chain before releasing the shards into the next window.
	if crossShard {
		r.needRescan = true
	}
	return moved, movedBytes, nil
}

// fixedTimeout is the constant-threshold policy the classic Run path
// uses (identical to the one disk.New installs).
type fixedTimeout float64

func (f fixedTimeout) Timeout() float64  { return float64(f) }
func (fixedTimeout) ObserveIdle(float64) {}

// gapRecorder wraps a disk's spin policy to histogram closed idle gaps
// into the current window. Timeout passes straight through, so wrapped
// and unwrapped runs behave identically.
type gapRecorder struct {
	inner disk.SpinPolicy
	acc   *winAccum
	group int
}

func (g *gapRecorder) Timeout() float64 { return g.inner.Timeout() }

func (g *gapRecorder) ObserveIdle(gap float64) {
	// Only the per-group bucket is touched here; the farm-wide total is
	// a sum over groups computed once per window at snapshot time, not
	// a second increment on every gap.
	g.acc.gaps[g.group][idleGapBucket(gap)]++
	g.inner.ObserveIdle(gap)
}

// winAccum accumulates one shard's share of a window — per-group
// activity for the groups the shard owns — and remembers the
// cumulative per-disk counters at the previous boundary so fillRows
// can report deltas. Group-indexed slices span every farm group (group
// indices are global); only the owned groups' entries ever fill, and
// the runner reads exactly those when assembling the merged Window.
type winAccum struct {
	groupOf []int // global disk → group (shared, read-only; nil = all group 0)
	// Per-group accumulators, reset (capacity kept) every window. The
	// farm-wide histogram and arrival totals are derived by the runner
	// summing groups at assembly time; farm-wide quantiles come from
	// merging the sorted per-group samples, which reproduces a single
	// farm-wide sample bit for bit.
	resp     []stats.Sample
	arrivals []int64
	gaps     [][]int64
	rhist    [][]int64
	// rows holds the shard's filled per-group snapshot rows. The
	// runner copies owned rows into its double-buffered Window, so a
	// single buffer per shard suffices.
	rows []GroupWindow
	// Previous-boundary counters, indexed by the shard's local disk
	// index (not the global disk ID).
	prevEnergy  []float64
	prevUps     []int
	prevDowns   []int
	prevStandby []float64
}

func newWinAccum(groupOf []int, ngroups, localDisks int) *winAccum {
	a := &winAccum{
		groupOf:     groupOf,
		resp:        make([]stats.Sample, ngroups),
		arrivals:    make([]int64, ngroups),
		gaps:        make([][]int64, ngroups),
		rhist:       make([][]int64, ngroups),
		rows:        make([]GroupWindow, ngroups),
		prevEnergy:  make([]float64, localDisks),
		prevUps:     make([]int, localDisks),
		prevDowns:   make([]int, localDisks),
		prevStandby: make([]float64, localDisks),
	}
	for g := range a.gaps {
		a.gaps[g] = make([]int64, len(idleGapBounds)+1)
		a.rhist[g] = make([]int64, len(respBounds)+1)
		a.rows[g].IdleGaps = make([]int64, len(idleGapBounds)+1)
		a.rows[g].RespHist = make([]int64, len(respBounds)+1)
	}
	return a
}

func (a *winAccum) group(d int) int {
	if len(a.groupOf) == 0 {
		return 0
	}
	return a.groupOf[d]
}

// fillRows closes the window ending at end for this shard: each owned
// group's row is computed from the window accumulators and the
// per-disk counter deltas. Accumulators are NOT reset here — the
// runner still needs the raw response samples for the farm-wide
// quantile merge — reset() runs after assembly. Groups the shard does
// not own produce all-zero rows the runner never reads.
func (a *winAccum) fillRows(m *machine, end float64) {
	for g := range a.rows {
		row := &a.rows[g]
		gaps, rhist := row.IdleGaps, row.RespHist
		s := &a.resp[g]
		*row = GroupWindow{
			Group:     g,
			Arrivals:  a.arrivals[g],
			Completed: s.Count(),
			IdleGaps:  gaps,
			RespHist:  rhist,
		}
		if s.Count() > 0 {
			row.RespMean = s.Mean()
			row.RespP50 = s.Quantile(0.5)
			row.RespP95 = s.Quantile(0.95)
			row.RespP99 = s.Quantile(0.99)
			row.RespMax = s.Max()
		}
		copy(gaps, a.gaps[g])
		copy(rhist, a.rhist[g])
	}
	// Per-disk counter deltas accumulate into the owning group's row in
	// ascending global disk order (local order preserves it), exactly
	// the order the sequential accumulator used.
	for ld, dk := range m.disks {
		g := a.group(m.diskID[ld])
		row := &a.rows[g]
		e := dk.EnergyAt(end)
		ups, downs := dk.SpinUps(), dk.SpinDowns()
		standby := dk.StateDurationAt(disk.Standby, end)
		row.Energy += e - a.prevEnergy[ld]
		row.SpinUps += ups - a.prevUps[ld]
		row.SpinDowns += downs - a.prevDowns[ld]
		row.StandbyTime += standby - a.prevStandby[ld]
		a.prevEnergy[ld] = e
		a.prevUps[ld] = ups
		a.prevDowns[ld] = downs
		a.prevStandby[ld] = standby
	}
}

// reset clears the per-window accumulators for the next window,
// keeping their backing storage. Called by the runner after it has
// consumed the rows and response samples.
func (a *winAccum) reset() {
	for g := range a.resp {
		a.resp[g].Reset()
		a.arrivals[g] = 0
		for b := range a.gaps[g] {
			a.gaps[g][b] = 0
		}
		for b := range a.rhist[g] {
			a.rhist[g][b] = 0
		}
	}
}

// machine is one shard of a simulation run: a private event queue, the
// shard's disks (a subset of the farm in ascending global disk order),
// its slice of the arrival chain, and its share of the counters. A
// sequential run is a single machine owning every disk. Shards share
// no mutable state mid-window — the runner owns the placement map and
// the migration ledger, both written only at window boundaries while
// every shard is parked.
type machine struct {
	run *runner
	id  int
	env *sim.Env

	disks  []*disk.Disk // shard-local, ascending global disk ID
	diskID []int        // local index → global disk ID

	pending  int       // trace index of the scheduled (unfired) arrival; len(Requests) = exhausted
	arrEvent sim.Event // handle on the pending arrival, for boundary rescans
	arrSeq   uint64    // FIFO position reserved for request 0 (request i gets arrSeq+i)

	resp                                                      stats.Sample
	completed, writesPlaced, writesToSpinning, writesRejected int64
	readsUnplaced                                             int64

	acc *winAccum

	// Request pool: per-request state is recycled through a free list
	// (slab-allocated) and every request shares one Done function —
	// doneFn, the m.onDone method value bound once at construction —
	// with the owning disk index carried in Request.Tag. Steady-state
	// submit/complete therefore allocates nothing.
	doneFn  func(*disk.Request, sim.Time)
	reqFree []*disk.Request
	reqSlab []disk.Request

	// Rebuild streams share the pool but complete through rebuildFn
	// (m.onRebuildDone) with the job index in Tag; completions are
	// recorded shard-locally in relFins and folded at boundaries.
	rebuildFn func(*disk.Request, sim.Time)
	relFins   []relFin
}

// reqSlabSize is the request-pool refill size; a refill covers one
// disk's worth of queue depth several times over.
const reqSlabSize = 64

func (m *machine) allocReq() *disk.Request {
	if n := len(m.reqFree); n > 0 {
		r := m.reqFree[n-1]
		m.reqFree = m.reqFree[:n-1]
		return r
	}
	if len(m.reqSlab) == 0 {
		m.reqSlab = make([]disk.Request, reqSlabSize)
	}
	r := &m.reqSlab[0]
	m.reqSlab = m.reqSlab[1:]
	return r
}

// localDisk resolves a global disk ID to the shard's disk object.
func (m *machine) localDisk(d int) *disk.Disk {
	if m.run.localOf == nil {
		return m.disks[d]
	}
	return m.disks[m.run.localOf[d]]
}

// owns reports whether this shard's arrival chain dispatches requests
// for file f under the current placement map. Unplaced files fall to
// shard 0 (they only occur sequentially — the partitioner routes
// traces with unplaced writes to a single shard — or as unplaced-read
// accounting, which any single owner may count).
func (m *machine) owns(f int) bool {
	so := m.run.shardOf
	if so == nil {
		return true
	}
	d := m.run.place[f]
	if d < 0 {
		return m.id == 0
	}
	return so[d] == int32(m.id)
}

// scheduleFrom scans the trace from index idx for the next request this
// shard owns and schedules its arrival at the FIFO position reserved
// for that index — so however the trace is split across shards, every
// arrival keeps the tie-breaking rank it has in the sequential run.
func (m *machine) scheduleFrom(idx int) {
	reqs := m.run.tr.Requests
	for ; idx < len(reqs); idx++ {
		if m.owns(reqs[idx].FileID) {
			m.pending = idx
			m.arrEvent = m.env.AtArgSeq(reqs[idx].Time, nextArrivalCB, m, m.arrSeq+uint64(idx))
			return
		}
	}
	m.pending = len(reqs)
	m.arrEvent = sim.Event{}
}

// nextArrivalCB dispatches the shard's pending trace request and
// schedules the one after it. Arrivals are chained — exactly one
// arrival event is pending per shard at any instant — so the event
// queue holds only the simulation's working set (services, spin-ups,
// one arrival) instead of the whole trace horizon. That keeps the
// calendar queue's epoch span near-term and the node pool proportional
// to concurrency, not trace length. Validate() guarantees the request
// stream is time-sorted, which is what makes the chain legal; the FIFO
// positions reserved at construction (arrSeq) make it invisible —
// every arrival keeps the tie-breaking rank it would have had
// scheduled upfront, so runs are byte-identical to the eager scheme.
func nextArrivalCB(a any) {
	m := a.(*machine)
	r := m.run.tr.Requests[m.pending]
	m.scheduleFrom(m.pending + 1)
	m.onRequest(r)
}

// spinning reports whether the disk can absorb a write without a
// spin-up.
func (m *machine) spinning(d *disk.Disk) bool {
	switch d.State() {
	case disk.Idle, disk.Seeking, disk.Transferring, disk.SpinningUp:
		return true
	}
	return false
}

// chooseWriteDisk implements the Section 1 policy: prefer an
// already-spinning disk with space (first-fit, or best-fit with
// WriteBestFit), falling back to any disk with space. Placement scans
// the whole farm, which is why traces with unplaced writes run on a
// single shard (see ShardBlocker) — here that shard owns every disk.
func (m *machine) chooseWriteDisk(size int64) int {
	for _, spinOnly := range []bool{true, false} {
		best := -1
		for d := 0; d < m.run.cfg.NumDisks; d++ {
			if m.run.freeBytes[d] < size || (spinOnly && !m.spinning(m.localDisk(d))) {
				continue
			}
			if !m.run.cfg.WriteBestFit {
				return d
			}
			if best == -1 || m.run.freeBytes[d] < m.run.freeBytes[best] {
				best = d
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// noteArrival counts a request dispatched toward disk d in the current
// window.
func (m *machine) noteArrival(d int) {
	if m.acc == nil {
		return
	}
	m.acc.arrivals[m.acc.group(d)]++
}

// noteComplete records a completion served by disk d (or its cache
// front) in the current window.
func (m *machine) noteComplete(d int, rt float64) {
	if m.acc == nil {
		return
	}
	g := m.acc.group(d)
	m.acc.resp[g].Add(rt)
	m.acc.rhist[g][respBucket(rt)]++
}

// onRequest dispatches one trace request at its arrival instant.
func (m *machine) onRequest(r trace.Request) {
	size := m.run.tr.Files[r.FileID].Size
	if r.Write {
		d := m.run.place[r.FileID]
		if d < 0 {
			d = m.chooseWriteDisk(size)
			if d < 0 {
				m.writesRejected++
				return
			}
			if m.spinning(m.localDisk(d)) {
				m.writesToSpinning++
			}
			m.run.place[r.FileID] = d
			m.run.freeBytes[d] -= size
			m.writesPlaced++
		}
		m.noteArrival(d)
		m.submit(d, r.FileID, size)
		return
	}
	d := m.run.place[r.FileID]
	if d < 0 {
		m.readsUnplaced++
		return
	}
	m.noteArrival(d)
	if m.run.lru != nil && m.run.lru.Get(r.FileID, size) {
		// Cache hit: served without disk involvement; the paper counts
		// these as (near-)zero response time.
		m.resp.Add(0)
		m.completed++
		m.noteComplete(d, 0)
		return
	}
	m.submit(d, r.FileID, size)
}

// submit enqueues a whole-file read on disk d using a pooled request.
func (m *machine) submit(d int, fileID int, size int64) {
	req := m.allocReq()
	*req = disk.Request{
		FileID:  fileID,
		Size:    size,
		Arrival: m.env.Now(),
		Done:    m.doneFn,
		Tag:     d,
	}
	m.localDisk(d).Submit(req)
}

// onDone is the completion callback shared by every pooled request; it
// recycles the request, which the disk permits from inside Done.
func (m *machine) onDone(req *disk.Request, doneAt sim.Time) {
	rt := doneAt - req.Arrival
	m.resp.Add(rt)
	m.completed++
	if m.run.lru != nil {
		m.run.lru.Put(req.FileID, req.Size)
	}
	m.noteComplete(req.Tag, rt)
	m.reqFree = append(m.reqFree, req)
}

// shardStep is one barrier command: advance to end, optionally close
// the window accumulators there, optionally finalize the disks.
type shardStep struct {
	end      sim.Time
	snap     bool
	finalize bool
}

// advance executes one step on the shard — the unit of work between
// two barriers. Called inline for single-shard runs and from the
// worker goroutine otherwise.
func (m *machine) advance(st shardStep) {
	m.env.RunUntil(st.end)
	if st.snap {
		m.acc.fillRows(m, st.end)
	}
	if st.finalize {
		for _, dk := range m.disks {
			dk.Finalize()
		}
	}
}

// serve is the worker-goroutine loop: execute steps until the command
// channel closes, acknowledging each on done.
func (m *machine) serve(cmds <-chan shardStep, done chan<- int) {
	for st := range cmds {
		m.advance(st)
		done <- m.id
	}
}

// RunStream simulates the trace like Run while emitting a telemetry
// Window every sc.Epoch simulated seconds (the last window ends at the
// horizon and is marked Final). With a do-nothing observer the results
// are byte-identical to Run — the window machinery only reads state.
// Observers actuate through the RunControl handle and through whatever
// policy objects the caller installed via Config.PolicyFactory.
func RunStream(tr *trace.Trace, assign []int, cfg Config, sc StreamConfig) (*Results, error) {
	return RunStreamParallel(tr, assign, cfg, sc, ParallelConfig{})
}
