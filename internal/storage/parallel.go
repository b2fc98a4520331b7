package storage

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"

	"diskpack/internal/cache"
	"diskpack/internal/disk"
	"diskpack/internal/sim"
	"diskpack/internal/stats"
	"diskpack/internal/trace"
)

// Parallel execution: one simulation sharded across worker goroutines.
//
// The farm model is partitionable because disks only interact through
// the file→disk map: once every file a request stream touches is
// placed, each request routes to exactly one disk, and disks never
// read each other's state mid-window. Shards therefore run their own
// sim.Env clocks independently between window boundaries and
// synchronize only at the RunWindows seam, where the runner merges
// per-shard telemetry into one Window (fixed group order, exact
// integer histogram addition, order-canonicalized floating-point
// reductions) before the observer sees it — so controllers observe
// and actuate against state identical to a sequential run's.
//
// Byte-identity with the sequential kernel holds because each shard's
// event order is the sequential order restricted to that shard:
// shard construction arms disk idle timeouts (each reserving a FIFO
// position) in ascending global disk order, every shard reserves FIFO
// positions for the FULL trace (so arrival i keeps sequential
// tie-breaking rank i wherever it lands), and runtime-scheduled events
// (services, timeouts) claim positions after the reserved block in
// both executions. Runs that DO couple disks mid-window — a
// farm-global front cache, or write placement for unplaced files
// (which scans every disk) — are detected by ShardBlocker and routed
// to the single-shard path, never silently
// approximated.

// ParallelConfig selects how many shards execute one simulation.
type ParallelConfig struct {
	// Workers is the number of shard goroutines to run the simulation
	// on. Values <= 1 select the sequential in-line path. The effective
	// shard count is clamped to the number of partitionable units
	// (telemetry groups when streaming, disks otherwise) and collapses
	// to 1 when ShardBlocker reports the run non-partitionable.
	Workers int
	// Label tags worker goroutines in CPU profiles (pprof label
	// "scenario") so profile samples attribute to the run that spawned
	// them. Empty is fine.
	Label string
}

// ShardBlocker reports why a run cannot be partitioned across shards,
// or "" when it can. A non-empty reason routes the run to the
// sequential single-shard path (parallelism is dropped, results are
// exact); callers and tests use it to assert the fallback fired.
//
// The check is static and conservative: it inspects the trace and the
// initial assignment, not the dynamic placement. That is sound because
// mid-run reallocation can move placed files but never unplace them,
// so the set of "writes that will exercise farm-global placement" is
// known before the clock starts.
func ShardBlocker(tr *trace.Trace, assign []int, cfg Config) string {
	if cfg.CacheBytes > 0 {
		return "front LRU cache is farm-global: hit state depends on every shard's access interleaving"
	}
	for _, rq := range tr.Requests {
		if rq.Write && rq.FileID >= 0 && rq.FileID < len(assign) && assign[rq.FileID] == Unplaced {
			return "write placement for unplaced files scans the whole farm for spinning disks"
		}
	}
	return ""
}

// runner owns one simulation run: the shared tables every shard reads
// (placement, free capacity), the state only the boundary mutates
// (migration ledger, cache), and the barrier machinery that advances
// shards in lockstep through windows. A sequential run is a runner
// with a single shard and no goroutines.
type runner struct {
	cfg Config
	tr  *trace.Trace
	sc  *StreamConfig
	par ParallelConfig

	shards  []*machine
	shardOf []int32 // global disk → owning shard; nil when one shard owns all
	localOf []int32 // global disk → index within its shard; nil = identity

	// place is the dynamic file→disk map: the write policy fills in
	// Unplaced entries at write time (single-shard only, see
	// ShardBlocker); freeBytes tracks remaining raw capacity per disk.
	// Mid-window these are read-only for multi-shard runs; the window
	// boundary (Realloc) is the only writer, with every shard parked.
	place     []int
	freeBytes []int64
	lru       *cache.LRU

	// rel is the reliability ledger (nil without Config.Reliability):
	// failure clocks, redundancy groups, in-flight rebuilds. Checked
	// only at reliability boundaries with every shard parked.
	rel *relState

	migrationEnergy float64
	migratedFiles   int64
	migratedBytes   int64
	// needRescan marks that a boundary Realloc moved a file across
	// shards, so every shard's arrival chain must re-derive ownership
	// before the next window runs.
	needRescan bool

	// Streaming state (nil/zero on the classic path).
	ngroups     int
	disksIn     []int
	groupOwner  []int32 // group → owning shard; nil when single-shard
	bufs        [2]Window
	windex      int
	respScratch []float64
	respRuns    [][]float64
	prevHits    int64
	prevMisses  int64
	prevMigE    float64
	prevMigF    int64
	prevMigB    int64

	// Barrier channels (nil when single-shard): cmds fan one shardStep
	// out to every worker, done collects acknowledgements. The
	// send→receive pairing gives the happens-before edges that make
	// boundary mutations (placement, policy tunables, accumulator
	// reset) visible to every shard race-free.
	cmds []chan shardStep
	done chan int
}

// numGroups derives the dense group count from a GroupOf map.
func numGroups(groupOf []int) int {
	ng := 1
	for _, g := range groupOf {
		if g+1 > ng {
			ng = g + 1
		}
	}
	return ng
}

// newRunner validates inputs, decides the shard layout, and builds the
// per-shard machines without advancing any clock.
func newRunner(tr *trace.Trace, assign []int, cfg Config, sc *StreamConfig, par ParallelConfig) (*runner, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	if len(assign) != len(tr.Files) {
		return nil, fmt.Errorf("storage: assignment covers %d files, trace has %d", len(assign), len(tr.Files))
	}
	for f, d := range assign {
		if (d < 0 && d != Unplaced) || d >= cfg.NumDisks {
			return nil, fmt.Errorf("storage: file %d assigned to disk %d outside farm of %d", f, d, cfg.NumDisks)
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if sc != nil {
		if err := sc.validate(cfg.NumDisks); err != nil {
			return nil, err
		}
	}

	r := &runner{cfg: cfg, tr: tr, sc: sc, par: par}
	if cfg.Reliability != nil {
		r.rel = newRelState(*cfg.Reliability, cfg.NumDisks)
	}
	if sc != nil {
		r.ngroups = numGroups(sc.GroupOf)
		r.disksIn = make([]int, r.ngroups)
		for _, g := range sc.GroupOf {
			r.disksIn[g]++
		}
		if len(sc.GroupOf) == 0 {
			r.disksIn[0] = cfg.NumDisks
		}
	}

	// Shard layout. Units never split: a telemetry group's disks stay
	// together when streaming (the group's histograms and samples are
	// single-writer), and each disk is a unit on the classic path.
	nshards := par.Workers
	if nshards < 1 {
		nshards = 1
	}
	if nshards > 1 && ShardBlocker(tr, assign, cfg) != "" {
		nshards = 1
	}
	if nshards > 1 {
		units := cfg.NumDisks
		if sc != nil {
			units = r.ngroups
		}
		if nshards > units {
			nshards = units
		}
	}
	if nshards > 1 {
		// Greedy lightest-shard assignment in unit-index order: each
		// unit lands on the currently smallest shard (ties → lowest
		// index), which is deterministic and balances disk counts.
		r.shardOf = make([]int32, cfg.NumDisks)
		load := make([]int, nshards)
		pick := func(weight int) int32 {
			best := 0
			for s := 1; s < nshards; s++ {
				if load[s] < load[best] {
					best = s
				}
			}
			load[best] += weight
			return int32(best)
		}
		if sc != nil {
			r.groupOwner = make([]int32, r.ngroups)
			for g := 0; g < r.ngroups; g++ {
				r.groupOwner[g] = pick(r.disksIn[g])
			}
			if len(sc.GroupOf) == 0 {
				for d := range r.shardOf {
					r.shardOf[d] = r.groupOwner[0]
				}
			} else {
				for d, g := range sc.GroupOf {
					r.shardOf[d] = r.groupOwner[g]
				}
			}
		} else {
			for d := range r.shardOf {
				r.shardOf[d] = pick(1)
			}
		}
		r.localOf = make([]int32, cfg.NumDisks)
		counts := make([]int, nshards)
		for d := 0; d < cfg.NumDisks; d++ {
			s := r.shardOf[d]
			r.localOf[d] = int32(counts[s])
			counts[s]++
		}
	}

	// Shared tables.
	r.place = append([]int(nil), assign...)
	r.freeBytes = make([]int64, cfg.NumDisks)
	for d := range r.freeBytes {
		r.freeBytes[d] = cfg.paramsFor(d).CapacityBytes
	}
	for f, d := range r.place {
		if d >= 0 {
			r.freeBytes[d] -= tr.Files[f].Size
		}
	}
	if cfg.CacheBytes > 0 {
		r.lru = cache.NewLRU(cfg.CacheBytes)
	}

	// Per-shard machines. Disk construction iterates GLOBAL disk order
	// so PolicyFactory is invoked exactly as sequentially (adaptive
	// factories may be seeded per index but stateful across calls) and
	// each shard's idle timeouts arm in ascending order — the property
	// the byte-identity argument rests on. Each shard's disks live in
	// one slab, so a cold farm costs one allocation per shard, not one
	// per disk.
	r.shards = make([]*machine, nshards)
	shardDisks := make([]int, nshards)
	if r.shardOf == nil {
		shardDisks[0] = cfg.NumDisks
	} else {
		for _, s := range r.shardOf {
			shardDisks[s]++
		}
	}
	slabs := make([][]disk.Disk, nshards)
	for s := range r.shards {
		m := &machine{run: r, id: s, env: sim.NewEnv()}
		slabs[s] = make([]disk.Disk, shardDisks[s])
		m.disks = make([]*disk.Disk, 0, shardDisks[s])
		if sc != nil || nshards > 1 {
			m.diskID = make([]int, 0, shardDisks[s])
		}
		if sc != nil {
			m.acc = newWinAccum(sc.GroupOf, r.ngroups, shardDisks[s])
		}
		m.doneFn = m.onDone
		m.rebuildFn = m.onRebuildDone
		r.shards[s] = m
	}
	// Fixed thresholds are boxed once per distinct value, not per disk:
	// one policy serves a homogeneous farm (normalized resolved its
	// BreakEven), one per drive model a mixed farm at break-even.
	uniform := disk.SpinPolicy(fixedTimeout(cfg.IdleThreshold))
	breakEven := map[float64]disk.SpinPolicy{}
	for d := 0; d < cfg.NumDisks; d++ {
		s := 0
		if r.shardOf != nil {
			s = int(r.shardOf[d])
		}
		m := r.shards[s]
		p := r.cfg.paramsFor(d)
		var pol disk.SpinPolicy
		switch {
		case cfg.PolicyFactory != nil:
			pol = cfg.PolicyFactory(d)
		case cfg.IdleThreshold == BreakEven:
			t := p.BreakEvenThreshold()
			if breakEven[t] == nil {
				breakEven[t] = fixedTimeout(t)
			}
			pol = breakEven[t]
		default:
			pol = uniform
		}
		if m.acc != nil {
			pol = &gapRecorder{inner: pol, acc: m.acc, group: m.acc.group(d)}
		}
		dk := &slabs[s][len(m.disks)]
		disk.InitWithPolicy(dk, m.env, d, p, pol)
		m.disks = append(m.disks, dk)
		if m.diskID != nil {
			m.diskID = append(m.diskID, d)
		}
	}
	// Observability attaches before any simulated time passes, so each
	// disk's timeline opens with its construction-time Idle segment.
	r.attachObs()
	// Every shard reserves FIFO positions for the FULL trace after its
	// construction-time timers, mirroring the sequential machine:
	// request i occupies rank arrSeq+i on whichever shard owns it, so
	// simultaneous events tie-break identically at any shard count.
	if len(tr.Requests) > 0 {
		for _, m := range r.shards {
			m.arrSeq = m.env.ReserveSeqs(len(tr.Requests))
			m.scheduleFrom(0)
		}
	} else {
		for _, m := range r.shards {
			m.pending = 0
		}
	}

	// Streaming window buffers (double-buffered toward the observer).
	if sc != nil {
		for i := range r.bufs {
			r.bufs[i].Groups = make([]GroupWindow, r.ngroups)
			for g := range r.bufs[i].Groups {
				r.bufs[i].Groups[g].IdleGaps = make([]int64, len(idleGapBounds)+1)
				r.bufs[i].Groups[g].RespHist = make([]int64, len(respBounds)+1)
			}
			r.bufs[i].Total.IdleGaps = make([]int64, len(idleGapBounds)+1)
			r.bufs[i].Total.RespHist = make([]int64, len(respBounds)+1)
		}
	}
	return r, nil
}

// horizon returns the accounting horizon: the trace duration, extended
// to the last arrival if the trace under-declares it.
func (r *runner) horizon() float64 {
	h := r.tr.Duration
	if n := len(r.tr.Requests); n > 0 {
		h = math.Max(h, r.tr.Requests[n-1].Time)
	}
	return h
}

// startWorkers launches one goroutine per shard (none when
// single-shard) and returns the stop function that closes their
// command channels. Workers carry pprof labels so a CPU profile
// attributes samples to (scenario, shard, groups).
func (r *runner) startWorkers() func() {
	if len(r.shards) == 1 {
		return func() {}
	}
	label := r.par.Label
	if label == "" {
		label = "run"
	}
	r.cmds = make([]chan shardStep, len(r.shards))
	r.done = make(chan int, len(r.shards))
	for i, m := range r.shards {
		ch := make(chan shardStep, 1)
		r.cmds[i] = ch
		labels := pprof.Labels(
			"scenario", label,
			"shard", strconv.Itoa(m.id),
			"groups", r.shardGroups(m.id),
		)
		go func(m *machine, ch chan shardStep) {
			pprof.Do(context.Background(), labels, func(context.Context) {
				m.serve(ch, r.done)
			})
		}(m, ch)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, ch := range r.cmds {
				close(ch)
			}
		})
	}
}

// shardGroups renders the telemetry groups (streaming) or disk count
// (classic) a shard owns, for profile labels.
func (r *runner) shardGroups(id int) string {
	if r.groupOwner == nil {
		n := 0
		for _, s := range r.shardOf {
			if int(s) == id {
				n++
			}
		}
		return fmt.Sprintf("%d-disks", n)
	}
	var b strings.Builder
	for g, s := range r.groupOwner {
		if int(s) != id {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(g))
	}
	return b.String()
}

// advanceAll runs one barrier round: every shard executes the step,
// and the call returns only when all have acknowledged. Single-shard
// runs execute inline on the caller's goroutine.
func (r *runner) advanceAll(st shardStep) {
	if r.cmds == nil {
		r.shards[0].advance(st)
		return
	}
	for _, ch := range r.cmds {
		ch <- st
	}
	for range r.shards {
		<-r.done
	}
}

// rescanArrivals rebuilds every shard's arrival chain after a
// cross-shard reallocation: each shard cancels its pending arrival and
// rescans the trace from the first request strictly after the boundary
// under the NEW ownership map. Re-scheduled arrivals reuse the FIFO
// positions reserved at construction, so tie-breaking ranks — and
// therefore byte-identity — survive the re-chain.
func (r *runner) rescanArrivals(now float64) {
	reqs := r.tr.Requests
	// Every request at Time <= now has fired on whichever shard owned
	// it; the first strictly-later request is where ownership scanning
	// restarts.
	idx := sort.Search(len(reqs), func(i int) bool { return reqs[i].Time > now })
	for _, m := range r.shards {
		m.arrEvent.Cancel()
		m.scheduleFrom(idx)
	}
}

// assembleWindow merges the shards' per-group rows into the next
// double-buffered Window. Group rows copy bit-exactly from their
// owning shard (a group never splits); the farm-wide Total folds the
// group rows in fixed group order, sums histograms exactly (integers),
// and computes response statistics from the merge of the sorted
// per-group samples — an order-canonical reduction that makes the
// merged quantiles independent of shard layout.
func (r *runner) assembleWindow(start, end float64, final bool) *Window {
	w := &r.bufs[r.windex&1]
	w.Index = r.windex
	w.Start, w.End, w.Final = start, end, final
	r.windex++

	owner := func(g int) *machine {
		if r.groupOwner == nil {
			return r.shards[0]
		}
		return r.shards[r.groupOwner[g]]
	}
	for g := 0; g < r.ngroups; g++ {
		src := &owner(g).acc.rows[g]
		dst := &w.Groups[g]
		gaps, rhist := dst.IdleGaps, dst.RespHist
		*dst = *src
		dst.Disks = r.disksIn[g]
		dst.IdleGaps, dst.RespHist = gaps, rhist
		copy(gaps, src.IdleGaps)
		copy(rhist, src.RespHist)
	}

	tGaps, tHist := w.Total.IdleGaps, w.Total.RespHist
	w.Total = GroupWindow{Group: -1, Disks: r.cfg.NumDisks, IdleGaps: tGaps, RespHist: tHist}
	for b := range tGaps {
		tGaps[b] = 0
	}
	for b := range tHist {
		tHist[b] = 0
	}
	for g := range w.Groups {
		row := &w.Groups[g]
		w.Total.Arrivals += row.Arrivals
		w.Total.Completed += row.Completed
		w.Total.Energy += row.Energy
		w.Total.SpinUps += row.SpinUps
		w.Total.SpinDowns += row.SpinDowns
		w.Total.StandbyTime += row.StandbyTime
		for b, v := range row.IdleGaps {
			tGaps[b] += v
		}
		for b, v := range row.RespHist {
			tHist[b] += v
		}
	}
	// fillRows sorted every group's sample, so the Total is a merge of
	// those runs, not a sort of their union.
	runs := r.respRuns[:0]
	for g := 0; g < r.ngroups; g++ {
		runs = append(runs, owner(g).acc.resp[g].SortedValues(nil))
	}
	xs := stats.MergeSorted(r.respScratch[:0], runs...)
	r.respScratch, r.respRuns = xs, runs
	if len(xs) > 0 {
		w.Total.RespMean = stats.SortedMean(xs)
		w.Total.RespP50 = stats.SortedQuantile(xs, 0.5)
		w.Total.RespP95 = stats.SortedQuantile(xs, 0.95)
		w.Total.RespP99 = stats.SortedQuantile(xs, 0.99)
		w.Total.RespMax = xs[len(xs)-1]
	}

	w.CacheHits, w.CacheMisses = 0, 0
	if r.lru != nil {
		s := r.lru.Stats()
		w.CacheHits, w.CacheMisses = s.Hits-r.prevHits, s.Misses-r.prevMisses
		r.prevHits, r.prevMisses = s.Hits, s.Misses
	}
	w.MigrationEnergy = r.migrationEnergy - r.prevMigE
	w.MigratedFiles = r.migratedFiles - r.prevMigF
	w.MigratedBytes = r.migratedBytes - r.prevMigB
	r.prevMigE, r.prevMigF, r.prevMigB = r.migrationEnergy, r.migratedFiles, r.migratedBytes
	w.Failures, w.DataLossEvents, w.Rebuilds, w.RebuildTime = 0, 0, 0, 0
	if rel := r.rel; rel != nil {
		w.Failures = rel.failures - rel.prevFailures
		w.DataLossEvents = rel.dataLoss - rel.prevDataLoss
		w.Rebuilds = rel.rebuilds - rel.prevRebuilds
		w.RebuildTime = rel.rebuildTime - rel.prevRebuildTime
		rel.prevFailures, rel.prevDataLoss = rel.failures, rel.dataLoss
		rel.prevRebuilds, rel.prevRebuildTime = rel.rebuilds, rel.rebuildTime
	}
	return w
}

// run advances the simulation to the horizon — one barrier round on
// the classic path, boundary by boundary when streaming windows or
// reliability checks need the shards parked — and assembles the
// results.
func (r *runner) run() (*Results, error) {
	horizon := r.horizon()
	stop := r.startWorkers()
	defer stop()

	if r.sc == nil && r.rel == nil {
		r.advanceAll(shardStep{end: sim.Time(horizon), finalize: true})
		return r.results(horizon), nil
	}

	// The boundary loop interleaves two independent cadences: telemetry
	// windows at integer multiples of the epoch (mirroring
	// sim.Env.RunWindows exactly — the last window clipped to the
	// horizon and marked final) and reliability checks at integer
	// multiples of CheckEvery. Each iteration advances every shard in
	// lockstep to the earlier of the two next boundaries; boundary code
	// runs with every shard parked, so window observers' actuations and
	// injected rebuild streams are ordered before the next advance on
	// every shard — the property byte-identity at any worker count
	// rests on. A reliability check that coincides with a window runs
	// after it, so the failures it books appear in the next window's
	// deltas along with the rebuild traffic they inject.
	epoch, relEvery := math.Inf(1), math.Inf(1)
	if r.sc != nil {
		epoch = r.sc.Epoch
	}
	if r.rel != nil {
		relEvery = r.rel.cfg.CheckEvery
	}
	for kw, kr := 1, 1; ; {
		wEnd := float64(kw) * epoch
		rEnd := float64(kr) * relEvery
		end := math.Min(wEnd, rEnd)
		final := end >= horizon
		if final {
			end = horizon
		}
		r.advanceAll(shardStep{end: sim.Time(end), snap: r.sc != nil && (end >= wEnd || final)})
		if r.sc != nil && (end >= wEnd || final) {
			w := r.assembleWindow(float64(kw-1)*epoch, end, final)
			kw++
			if r.sc.OnWindow != nil {
				if err := r.sc.OnWindow(w, &RunControl{r}); err != nil {
					return nil, err
				}
			}
			// Publish to observability sinks after the observer ran (so
			// tunable thresholds are filled) and before the reset below
			// reclaims the accumulators.
			if err := r.observeWindow(w); err != nil {
				return nil, err
			}
			// Reset per-window accumulators only after assembly consumed
			// the raw response samples for the Total merge.
			for _, m := range r.shards {
				m.acc.reset()
			}
		}
		if r.rel != nil && (end >= rEnd || final) {
			r.reliabilityBoundary(end)
			kr++
		}
		if r.needRescan {
			r.rescanArrivals(end)
			r.needRescan = false
		}
		if final {
			break
		}
		// SIGINT lands here: boundaries are the only safe abort points
		// (every shard parked, telemetry flushed through this window).
		if err := r.checkInterrupt(end); err != nil {
			return nil, err
		}
	}
	r.advanceAll(shardStep{end: sim.Time(horizon), finalize: true})
	if r.rel != nil {
		r.finishReliability(horizon)
	}
	return r.results(horizon), nil
}

// results merges the shards into one Results. Integer counters add
// exactly; per-disk energy accounting iterates GLOBAL disk order
// pulling each disk from its owning shard, reproducing the sequential
// fold bit for bit; farm-wide response statistics use the same
// order-canonical sorted reduction as the window Total, so they are
// identical at any shard count.
func (r *runner) results(horizon float64) *Results {
	res := &Results{
		Duration:        horizon,
		PerDisk:         make([]disk.Breakdown, r.cfg.NumDisks),
		MigrationEnergy: r.migrationEnergy,
		MigratedFiles:   r.migratedFiles,
		MigratedBytes:   r.migratedBytes,
	}
	var completions int64
	for _, m := range r.shards {
		res.Completed += m.completed
		res.WritesPlaced += m.writesPlaced
		res.WritesToSpinning += m.writesToSpinning
		res.WritesRejected += m.writesRejected
		res.ReadsUnplaced += m.readsUnplaced
		completions += m.resp.Count()
	}
	res.Unfinished = int64(len(r.tr.Requests)) - res.Completed - res.WritesRejected - res.ReadsUnplaced

	wear := disk.DefaultWear()
	if r.rel != nil {
		wear = r.rel.wear
		res.Failures = r.rel.failures
		res.DataLossEvents = r.rel.dataLoss
		res.Rebuilds = r.rel.rebuilds
		res.RebuildTime = r.rel.rebuildTime
		res.RebuildBytes = r.rel.rebuildBytes
	}
	var standbyTime, afrSum float64
	lastUps, lastPowered, lastAFR := -1, 0.0, 0.0
	for i := 0; i < r.cfg.NumDisks; i++ {
		s := 0
		if r.shardOf != nil {
			s = int(r.shardOf[i])
		}
		d := r.shards[s].localDisk(i)
		res.PerDisk[i] = d.Breakdown()
		b := &res.PerDisk[i]
		res.Energy += b.Energy
		res.SpinUps += b.SpinUps
		res.SpinDowns += b.SpinDowns
		standbyTime += b.Durations[disk.Standby]
		if horizon > 0 {
			// Extrapolate this disk's observed duty profile to a year
			// under the wear model; the farm AFR folds the per-disk
			// figures in global disk order (order-canonical, so the
			// modeled AFR is identical at any shard count). Cold disks
			// share one profile, so a repeat of the previous disk's
			// inputs reuses its figure.
			powered := horizon - b.Durations[disk.Standby]
			if b.SpinUps != lastUps || powered != lastPowered {
				lastUps, lastPowered = b.SpinUps, powered
				lastAFR = wear.AFR(float64(b.SpinUps)*86400/horizon, powered/horizon)
			}
			afrSum += lastAFR
		}
		if q := d.PeakQueueLen(); q > res.PeakQueue {
			res.PeakQueue = q
		}
		// No-saving baseline: this disk would have idled at idle power
		// whenever it was not seeking/transferring; seek and transfer
		// time are workload-determined and identical under either
		// policy.
		seek := b.Durations[disk.Seeking]
		xfer := b.Durations[disk.Transferring]
		p := r.cfg.paramsFor(i)
		res.NoSavingEnergy += p.IdlePower*(horizon-seek-xfer) +
			p.SeekPower*seek + p.ActivePower*xfer
	}
	// Migration rides on top of the disks' own accounting: the policy
	// caused it, so it is charged to Energy but not to the no-saving
	// baseline (which never migrates).
	res.Energy += r.migrationEnergy
	if horizon > 0 {
		res.AvgPower = res.Energy / horizon
		res.AvgStandbyDisks = standbyTime / horizon
		res.CyclesPerDay = float64(res.SpinUps) * 86400 / (horizon * float64(r.cfg.NumDisks))
		res.AFR = afrSum / float64(r.cfg.NumDisks)
	}
	if res.NoSavingEnergy > 0 {
		res.PowerSavingRatio = 1 - res.Energy/res.NoSavingEnergy
	}
	if completions > 0 {
		// Each shard sorts its own sample, borrowing the union buffer as
		// radix scratch before the merge fills it.
		xs := make([]float64, completions)
		runs := make([][]float64, len(r.shards))
		for i, m := range r.shards {
			runs[i] = m.resp.SortedValues(xs)
		}
		xs = stats.MergeSorted(xs[:0], runs...)
		res.RespMean = stats.SortedMean(xs)
		res.RespMedian = stats.SortedQuantile(xs, 0.5)
		res.RespP95 = stats.SortedQuantile(xs, 0.95)
		res.RespP99 = stats.SortedQuantile(xs, 0.99)
		res.RespMax = xs[len(xs)-1]
	}
	if r.lru != nil {
		s := r.lru.Stats()
		res.CacheHits, res.CacheMisses = s.Hits, s.Misses
		res.CacheHitRatio = r.lru.HitRatio()
	}
	r.observeFinal(res, horizon)
	return res
}

// RunParallel is Run sharded across par.Workers goroutines. Results
// are identical to Run at any worker count: partitionable runs prove
// it by construction (see the package comment above), and runs
// ShardBlocker rejects execute sequentially.
func RunParallel(tr *trace.Trace, assign []int, cfg Config, par ParallelConfig) (*Results, error) {
	r, err := newRunner(tr, assign, cfg, nil, par)
	if err != nil {
		return nil, err
	}
	return r.run()
}

// RunStreamParallel is RunStream sharded across par.Workers
// goroutines, with per-group windows merged deterministically at every
// boundary before the observer runs. Windows and Results are identical
// to RunStream at any worker count.
func RunStreamParallel(tr *trace.Trace, assign []int, cfg Config, sc StreamConfig, par ParallelConfig) (*Results, error) {
	r, err := newRunner(tr, assign, cfg, &sc, par)
	if err != nil {
		return nil, err
	}
	return r.run()
}
