package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"diskpack/internal/control"
	"diskpack/internal/coord"
	"diskpack/internal/core"
	"diskpack/internal/disk"
	"diskpack/internal/farm"
	"diskpack/internal/obs"
	"diskpack/internal/storage"
	"diskpack/internal/trace"
	"diskpack/internal/workload"
)

// outcome is what one op produced, reduced to what the benchmark checks
// and reports.
type outcome struct {
	digest  string
	simReqs int64   // simulated requests completed (summed over sweep points)
	saving  float64 // simulated power-saving ratio (chosen point for a sweep)
	p95     float64 // simulated p95 response, seconds (chosen point for a sweep)
}

// layerStats collects per-layer samples: one value per traced op or
// probe, reported as their median.
type layerStats map[string][]float64

func (l layerStats) add(name string, v float64) { l[name] = append(l[name], v) }

// bench is one workload. op is the timed closed-loop operation at one
// effective input seed; traced runs the same inputs with spans around
// every layer call, then probes layers the op cannot be split into from
// outside (probe spans sit outside the op). check runs the repository's
// identity guarantee for the workload, outside the timed region.
type bench struct {
	name string
	why  string
	// perSeed: op i runs at seed+i; otherwise every op replays the
	// inputs setup built from the seed.
	perSeed bool
	setup   func(seed int64) error
	op      func(seed int64) (outcome, error)
	traced  func(seed int64, t *tracer, ls layerStats) (outcome, error)
	check   func(seed int64) error
	// obsLeg, when set, is the run the off / nil-sink / enabled
	// observability legs time.
	obsLeg func(seed int64) error
}

func benches(n int) []*bench {
	return []*bench{nerscPaper(n), thresholdSweep(n), coldFarm(n), controlledDiurnal(n)}
}

// mbAlloc runs fn and returns the heap MB it allocated.
func mbAlloc(fn func() error) (float64, error) {
	before := heapAlloc()
	err := fn()
	return float64(heapAlloc()-before) / (1 << 20), err
}

// timed runs fn inside a span and returns its seconds and allocated MB.
func (t *tracer) timed(parent int, name, layer string, fn func() error) (secs, mb float64, err error) {
	id := t.begin(parent, name, layer)
	start := time.Now()
	mb, err = mbAlloc(fn)
	secs = time.Since(start).Seconds()
	t.end(id)
	return secs, mb, err
}

// probe runs fn as a root span outside any op.
func (t *tracer) probe(name, layer string, fn func() error) (secs, mb float64, err error) {
	if t == nil {
		return t.timed(-1, name, layer, fn)
	}
	op := t.op
	t.op = -1
	secs, mb, err = t.timed(-1, name, layer, fn)
	t.op = op
	return secs, mb, err
}

// simCounts records the storage layer's counts for one simulation.
func simCounts(ls layerStats, res *storage.Results, rm *obs.RunMetrics, simSecs float64, shards int) {
	active := 0
	for _, b := range res.PerDisk {
		if b.Served > 0 {
			active++
		}
	}
	ls.add("storage.completed", float64(res.Completed))
	ls.add("storage.peak_queue", float64(res.PeakQueue))
	ls.add("storage.shards", float64(shards))
	ls.add("disk.active_frac", float64(active)/float64(len(res.PerDisk)))
	// Kernel and disk counts come through the public metrics bundle the
	// run published into.
	events := rm.SimEvents.Value()
	ls.add("sim.events", events)
	if events > 0 {
		ls.add("sim.ns_per_event", simSecs*1e9/events)
	}
	ls.add("storage.arrivals", float64(rm.Arrivals.Value()))
	ls.add("storage.spin_ups", float64(rm.SpinUps.Value()))
}

// shardsRun is the shard count a run actually executes on: one when
// storage.ShardBlocker refuses to split it, else the worker count
// clamped to the disks.
func shardsRun(tr *trace.Trace, assign []int, cfg storage.Config, w int) int {
	if storage.ShardBlocker(tr, assign, cfg) != "" || w < 1 {
		return 1
	}
	if w > cfg.NumDisks {
		return cfg.NumDisks
	}
	return w
}

func newRunMetrics() *obs.RunMetrics {
	return obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets())
}

// packed is one allocation computed from outside farm: the packing
// items, the assignment, and Theorem 1's quality numbers.
type packed struct {
	tr        *trace.Trace
	assign    []int
	used, lb  int
	rho       float64
	farmSize  int
	buildSecs float64
	buildMB   float64
	packSecs  float64
	packMB    float64
}

// buildAndPack calls the workload and core layers the way farm.Run does
// for a homogeneous packed spec: farm.BuildTrace at the seed, then
// Spec.Items and the spec's Pack_Disks variant. parent < 0 records the
// calls as probes.
func buildAndPack(t *tracer, parent int, spec farm.Spec, seed int64) (*packed, error) {
	call := func(name, layer string, fn func() error) (float64, float64, error) {
		if parent < 0 {
			return t.probe(name, layer, fn)
		}
		return t.timed(parent, name, layer, fn)
	}
	p := &packed{}
	var err error
	p.buildSecs, p.buildMB, err = call("workload.BuildTrace", "workload", func() error {
		p.tr, err = farm.BuildTrace(spec.Workload, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.packSecs, p.packMB, err = call("core.PackDisks", "core", func() error {
		items, err := spec.Items(p.tr)
		if err != nil {
			return err
		}
		var a *core.Assignment
		switch spec.Alloc.Kind {
		case farm.AllocPack:
			a, err = core.PackDisks(items)
		case farm.AllocPackV:
			a, err = core.PackDisksV(items, spec.Alloc.V)
		default:
			err = fmt.Errorf("allocation %v is not a Pack_Disks variant", spec.Alloc.Kind)
		}
		if err != nil {
			return err
		}
		p.assign, p.used = a.DiskOf, a.NumDisks
		p.lb, p.rho = core.LowerBoundDisks(items), core.Rho(items)
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.farmSize = max(p.used, spec.FarmSize)
	return p, nil
}

func (p *packed) record(ls layerStats) {
	ls.add("workload.build_s", p.buildSecs)
	ls.add("workload.alloc_mb", p.buildMB)
	ls.add("workload.requests", float64(len(p.tr.Requests)))
	ls.add("workload.files", float64(len(p.tr.Files)))
	ls.add("core.pack_s", p.packSecs)
	ls.add("core.alloc_mb", p.packMB)
	ls.add("core.disks_used", float64(p.used))
	ls.add("core.disks_over_lb", float64(p.used-p.lb))
}

// fixedConfig is the storage config farm.Run builds for a homogeneous
// spec with a fixed threshold and no reliability stage.
func fixedConfig(spec farm.Spec, farmSize int, threshold float64, rm *obs.RunMetrics) storage.Config {
	cfg := storage.Config{NumDisks: farmSize, IdleThreshold: threshold, CacheBytes: spec.CacheBytes}
	if rm != nil {
		cfg.Obs = &obs.RunObserver{Metrics: rm}
	}
	return cfg
}

func metricsOutcome(m *farm.Metrics) outcome {
	return outcome{digest: metricsDigest(m), simReqs: m.Completed, saving: m.PowerSavingRatio, p95: m.RespP95}
}

// nerscPaper is the paper's Figures 5/6 operating point at full scale.
func nerscPaper(n int) *bench {
	spec := farm.Spec{
		Name:       "nersc-paper",
		FarmSize:   96,
		Workload:   farm.NERSCWorkload(workload.DefaultNERSC(0)),
		Alloc:      farm.AllocSpec{Kind: farm.AllocPackV, CapL: 0.8, V: 4},
		Spin:       farm.FixedSpin(0.5 * 3600),
		CacheBytes: 16 * disk.GB,
	}
	run := func(seed int64) (outcome, error) {
		m, err := farm.Run(spec, seed)
		if err != nil {
			return outcome{}, err
		}
		return metricsOutcome(m), nil
	}
	// decomposed runs farm.Run's stages one layer call at a time; its
	// digest must equal farm.Run's.
	type stages struct {
		*packed
		res            *storage.Results
		simSecs, simMB float64
		digest         string
	}
	decomposed := func(seed int64, t *tracer, parent int, rm *obs.RunMetrics) (*stages, error) {
		p, err := buildAndPack(t, parent, spec, seed)
		if err != nil {
			return nil, err
		}
		st := &stages{packed: p}
		cfg := fixedConfig(spec, p.farmSize, spec.Spin.Threshold, rm)
		st.simSecs, st.simMB, err = t.timed(parent, "storage.RunParallel", "storage", func() error {
			st.res, err = storage.RunParallel(p.tr, p.assign, cfg, storage.ParallelConfig{Workers: n, Label: spec.Name})
			return err
		})
		if err != nil {
			return nil, err
		}
		d := newDigester()
		d.farmRun(st.res, p.farmSize, p.used, p.lb, p.rho)
		st.digest = d.sum()
		return st, nil
	}
	return &bench{
		name: "nersc-paper",
		why: "paper Fig. 5/6 point at full NERSC scale: trace synthesis, Pack_Disks_4 and a cached (single-shard) " +
			"simulation in one farm.Run; sweep and coord idle",
		perSeed: true,
		setup:   func(int64) error { farm.SetSimWorkers(n); return nil },
		op:      run,
		traced: func(seed int64, t *tracer, ls layerStats) (outcome, error) {
			rm := newRunMetrics()
			op := t.begin(-1, "op", "unattributed")
			st, err := decomposed(seed, t, op, rm)
			t.end(op)
			if err != nil {
				return outcome{}, err
			}
			st.record(ls)
			res := st.res
			ls.add("storage.sim_s", st.simSecs)
			ls.add("storage.alloc_mb", st.simMB)
			ls.add("cache.hits", float64(res.CacheHits))
			ls.add("cache.hit_ratio", res.CacheHitRatio)
			cfg := fixedConfig(spec, st.farmSize, spec.Spin.Threshold, nil)
			simCounts(ls, res, rm, st.simSecs, shardsRun(st.tr, st.assign, cfg, n))
			var ref outcome
			farmSecs, _, err := t.probe("farm.Run", "farm", func() error {
				ref, err = run(seed)
				return err
			})
			if err != nil {
				return outcome{}, err
			}
			if ref.digest != st.digest {
				return outcome{}, fmt.Errorf("decomposed run digest %s differs from farm.Run's %s", st.digest, ref.digest)
			}
			ls.add("farm.run_s", farmSecs)
			ls.add("farm.unattributed_s", farmSecs-st.buildSecs-st.packSecs-st.simSecs)
			return outcome{digest: st.digest, simReqs: res.Completed, saving: res.PowerSavingRatio, p95: res.RespP95}, nil
		},
		check: func(seed int64) error {
			// The layer-by-layer decomposition the traced run times must
			// reproduce farm.Run exactly.
			ref, err := run(seed)
			if err != nil {
				return err
			}
			st, err := decomposed(seed, nil, -1, nil)
			if err != nil {
				return err
			}
			if st.digest != ref.digest {
				return fmt.Errorf("decomposed run digest %s differs from farm.Run's %s", st.digest, ref.digest)
			}
			return nil
		},
		obsLeg: func(seed int64) error { _, err := run(seed); return err },
	}
}

// Coordinator settings of the threshold sweep: a 1 ms linger after the
// grid drains and a 5 ms poll while every point is leased elsewhere.
const (
	sweepLinger = time.Millisecond
	sweepPoll   = 5 * time.Millisecond
	// sweepSLO is the p95 the selector must meet. Over seeds 1..200 the
	// best L=0.5 point's p95 stays within 18.9..25.6 s and every L=0.8
	// point's above 30.1 s, so some point always qualifies.
	sweepSLO = 28.0
)

// poolSweep runs the sweep through coord.Serve on a loopback ephemeral
// port with n in-process coord.Work workers (one point at a time each).
// spans, when non-nil, receives one span log per worker.
func poolSweep(sw farm.Sweep, seed int64, n int, spans []*bytes.Buffer) (*farm.SweepResult, []coord.WorkStats, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		stats    = make([]coord.WorkStats, n)
		firstErr error
	)
	cfg := coord.Config{Linger: sweepLinger, OnListen: func(addr net.Addr) {
		url := "http://" + addr.String()
		for i := 0; i < n; i++ {
			wc := coord.WorkerConfig{Name: fmt.Sprintf("worker-%d", i), Parallel: 1, Poll: sweepPoll}
			if spans != nil {
				wc.Spans = obs.NewSpanRecorder(spans[i])
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				st, err := coord.Work(ctx, url, wc)
				mu.Lock()
				defer mu.Unlock()
				stats[i] = st
				// Errors after the grid drained are the shutdown's
				// cancellation; earlier ones must not leave Serve waiting.
				if err != nil && ctx.Err() == nil && firstErr == nil {
					firstErr = err
					cancel()
				}
			}(i)
		}
	}}
	res, err := coord.Serve(ctx, sw, seed, "127.0.0.1:0", cfg)
	cancel()
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return res, stats, nil
}

func sweepOutcome(res *farm.SweepResult) (outcome, error) {
	if res.Best < 0 {
		return outcome{}, fmt.Errorf("no grid point meets the %g s p95 SLO", sweepSLO)
	}
	o := outcome{digest: sweepDigest(res)}
	for _, p := range res.Points {
		o.simReqs += p.Metrics.Completed
	}
	best := res.Points[res.Best].Metrics
	o.saving, o.p95 = best.PowerSavingRatio, best.RespP95
	return o, nil
}

// thresholdSweep is the operator's question: the cheapest spin-down
// threshold and load bound under a p95 SLO, pushed through the
// coordinator.
func thresholdSweep(n int) *bench {
	sw := farm.Sweep{
		Name: "threshold-sweep",
		Base: farm.Spec{
			Name:     "threshold-sweep",
			Workload: farm.SyntheticWorkload(workload.DefaultSynthetic(6, 0)),
			Alloc:    farm.Packed(0.8),
			Spin:     farm.SpinSpec{Kind: farm.SpinBreakEven}, // overridden per point
		},
		Axes: []farm.Axis{
			{Kind: farm.AxisSpinThreshold, Values: []float64{30, 60, 120, 300, 900, 1800, 3600, 7200}},
			{Kind: farm.AxisCapL, Values: []float64{0.5, 0.8}},
		},
		Select: farm.Selector{Kind: farm.SelectMinEnergySLO, MaxP95: sweepSLO},
	}
	return &bench{
		name: "threshold-sweep",
		why: "16-point threshold x L grid on the full Table 1 workload through coord.Serve and nproc loopback workers; " +
			"the only workload for sweep and coord",
		perSeed: true,
		setup:   func(int64) error { farm.SetSimWorkers(1); return nil },
		op: func(seed int64) (outcome, error) {
			res, _, err := poolSweep(sw, seed, n, nil)
			if err != nil {
				return outcome{}, err
			}
			return sweepOutcome(res)
		},
		traced: func(seed int64, t *tracer, ls layerStats) (outcome, error) {
			logs := make([]*bytes.Buffer, n)
			for i := range logs {
				logs[i] = &bytes.Buffer{}
			}
			op := t.begin(-1, "op", "unattributed")
			serve := t.begin(op, "coord.Serve", "coord")
			res, stats, err := poolSweep(sw, seed, n, logs)
			t.end(serve)
			t.end(op)
			if err != nil {
				return outcome{}, err
			}
			o, err := sweepOutcome(res)
			if err != nil {
				return outcome{}, err
			}
			first := len(t.spans)
			for _, l := range logs {
				if err := t.addWorkerLog(serve, l.Bytes(), n); err != nil {
					return outcome{}, err
				}
			}
			var runs []float64
			var runSum, leaseWait, submit, best float64
			leases := 0
			for _, s := range t.spans[first:] {
				switch s.Name {
				case "coord.run":
					runs = append(runs, s.dur())
					runSum += s.dur()
					if s.Point == res.Best {
						best = s.dur()
					}
				case "coord.lease":
					leases++
					leaseWait += s.dur()
				case "coord.submit":
					submit += s.dur()
				}
			}
			retries := 0
			for _, st := range stats {
				retries += st.Retries
			}
			wall := t.spans[serve].dur()
			ls.add("sweep.points", float64(len(res.Points)))
			ls.add("sweep.point_s_p50", median(runs))
			ls.add("sweep.parallel_eff", runSum/(wall*float64(n)))
			ls.add("coord.leases", float64(leases))
			ls.add("coord.lease_wait_s", leaseWait)
			ls.add("coord.submit_s", submit)
			ls.add("coord.retries", float64(retries))
			ls.add("coord.overhead_s", wall-runSum/float64(n))

			// Probes: the layer calls behind the chosen point, on its
			// inputs, one call each.
			spec := res.Points[res.Best].Spec
			p, err := buildAndPack(t, -1, spec, seed+res.Points[res.Best].SeedOffset)
			if err != nil {
				return outcome{}, err
			}
			p.record(ls)
			rm := newRunMetrics()
			var sim *storage.Results
			simSecs, simMB, err := t.probe("storage.RunParallel", "storage", func() error {
				sim, err = storage.RunParallel(p.tr, p.assign, fixedConfig(spec, p.farmSize, spec.Spin.Threshold, rm),
					storage.ParallelConfig{Workers: 1, Label: spec.Name})
				return err
			})
			if err != nil {
				return outcome{}, err
			}
			d := newDigester()
			d.farmRun(sim, p.farmSize, p.used, p.lb, p.rho)
			if want := metricsDigest(res.Points[res.Best].Metrics); d.sum() != want {
				return outcome{}, fmt.Errorf("chosen point replayed from its layers: digest %s, sweep gave %s", d.sum(), want)
			}
			ls.add("storage.sim_s", simSecs)
			ls.add("storage.alloc_mb", simMB)
			simCounts(ls, sim, rm, simSecs, 1)
			ls.add("farm.run_s", best)
			ls.add("farm.unattributed_s", best-p.buildSecs-p.packSecs-simSecs)
			return o, nil
		},
		check: func(seed int64) error {
			pool, _, err := poolSweep(sw, seed, n, nil)
			if err != nil {
				return err
			}
			local, err := farm.RunSweep(sw, seed, n)
			if err != nil {
				return err
			}
			return sameJSON("coordinator pool sweep", pool, "farm.RunSweep", local)
		},
	}
}

// coldFarm is the million-disk epoch: 2^20 disks, 10^5 requests on
// 2^17 active disks, 120 s, break-even spin-down.
func coldFarm(n int) *bench {
	const (
		nDisks  = 1 << 20
		nFiles  = 1 << 17
		nReqs   = 100_000
		horizon = 120.0
	)
	var (
		tr     *trace.Trace
		assign []int
		cfg    = storage.Config{NumDisks: nDisks, IdleThreshold: storage.BreakEven}
	)
	par := storage.ParallelConfig{Workers: n, Label: "cold-farm"}
	return &bench{
		name: "cold-farm",
		why: "2^20 disks, 10^5 requests on 2^17 of them: per-disk construction, idle-timer storms and memory " +
			"dominate; workload and core are bypassed",
		setup: func(seed int64) error {
			tr = &trace.Trace{Duration: horizon, Files: make([]trace.FileInfo, nFiles)}
			assign = make([]int, nFiles)
			for i := range tr.Files {
				tr.Files[i] = trace.FileInfo{ID: i, Size: 64 * disk.MB, Rate: 0.01}
				assign[i] = (i * (nDisks / nFiles)) % nDisks
			}
			rng := rand.New(rand.NewSource(seed))
			tr.Requests = make([]trace.Request, nReqs)
			for r := range tr.Requests {
				tr.Requests[r] = trace.Request{Time: horizon * float64(r) / nReqs, FileID: rng.Intn(nFiles)}
			}
			return tr.Validate()
		},
		op: func(int64) (outcome, error) {
			res, err := storage.RunParallel(tr, assign, cfg, par)
			if err != nil {
				return outcome{}, err
			}
			return resultsOutcome(res), nil
		},
		traced: func(_ int64, t *tracer, ls layerStats) (outcome, error) {
			rm := newRunMetrics()
			c := cfg
			c.Obs = &obs.RunObserver{Metrics: rm}
			op := t.begin(-1, "op", "unattributed")
			var res *storage.Results
			secs, mb, err := t.timed(op, "storage.RunParallel", "storage", func() error {
				var err error
				res, err = storage.RunParallel(tr, assign, c, par)
				return err
			})
			t.end(op)
			if err != nil {
				return outcome{}, err
			}
			ls.add("storage.sim_s", secs)
			ls.add("storage.alloc_mb", mb)
			ls.add("workload.requests", float64(len(tr.Requests)))
			ls.add("workload.files", float64(len(tr.Files)))
			simCounts(ls, res, rm, secs, shardsRun(tr, assign, cfg, n))
			return resultsOutcome(res), nil
		},
		check: func(int64) error {
			seq, err := storage.Run(tr, assign, cfg)
			if err != nil {
				return err
			}
			d := newDigester()
			d.results(seq)
			d.perDisk(seq)
			want := d.sum()
			seq = nil
			parRes, err := storage.RunParallel(tr, assign, cfg, par)
			if err != nil {
				return err
			}
			d = newDigester()
			d.results(parRes)
			d.perDisk(parRes)
			if got := d.sum(); got != want {
				return fmt.Errorf("RunParallel (%d workers) digest %s differs from sequential Run's %s", n, got, want)
			}
			return nil
		},
	}
}

func resultsOutcome(res *storage.Results) outcome {
	d := newDigester()
	d.results(res)
	return outcome{digest: d.sum(), simReqs: res.Completed, saving: res.PowerSavingRatio, p95: res.RespP95}
}

// controlledDiurnal is the registered closed-loop scenario: four days
// in 192 half-hour windows under the tail-budget controller.
func controlledDiurnal(n int) *bench {
	sc, ok := farm.Lookup("controlled-diurnal")
	if !ok {
		panic("perfbench: controlled-diurnal scenario not registered")
	}
	spec := sc.Spec
	open := spec
	open.Control = nil
	run := func(seed int64) (*control.Result, error) { return control.RunSpec(spec, seed) }
	ctrlOutcome := func(r *control.Result) outcome {
		return outcome{digest: controlDigest(r), simReqs: r.Metrics.Completed,
			saving: r.Metrics.PowerSavingRatio, p95: r.Metrics.RespP95}
	}
	return &bench{
		name: "controlled-diurnal",
		why: "registered closed-loop scenario: 192 windowed storage assemblies per run under the tail-budget " +
			"controller; the only workload for control",
		perSeed: true,
		setup:   func(int64) error { farm.SetSimWorkers(n); return nil },
		op: func(seed int64) (outcome, error) {
			r, err := run(seed)
			if err != nil {
				return outcome{}, err
			}
			return ctrlOutcome(r), nil
		},
		traced: func(seed int64, t *tracer, ls layerStats) (outcome, error) {
			rm := newRunMetrics()
			prev := farm.SetRunObserver(&obs.RunObserver{Metrics: rm})
			op := t.begin(-1, "op", "unattributed")
			var r *control.Result
			runSecs, _, err := t.timed(op, "control.RunSpec", "control", func() error {
				var err error
				r, err = run(seed)
				return err
			})
			t.end(op)
			farm.SetRunObserver(prev)
			if err != nil {
				return outcome{}, err
			}
			applied := 0
			for _, a := range r.Actions {
				if a.Applied {
					applied++
				}
			}
			windows := len(r.Windows)
			ls.add("control.run_s", runSecs)
			ls.add("control.windows", float64(windows))
			ls.add("control.actions", float64(len(r.Actions)))
			if len(r.Actions) > 0 {
				ls.add("control.applied_frac", float64(applied)/float64(len(r.Actions)))
			}
			// A streamed run shards by telemetry group.
			groups := 1
			if windows > 0 {
				groups = len(r.Windows[0].Groups)
			}
			shards := min(n, groups)
			res := r.Metrics.Sim

			// Probes on the same inputs: the open-loop run, and the
			// workload and core calls it starts with.
			openSecs, openMB, err := t.probe("farm.RunStream", "farm", func() error {
				_, err := farm.RunStream(open, seed, spec.Control.Epoch, nil)
				return err
			})
			if err != nil {
				return outcome{}, err
			}
			p, err := buildAndPack(t, -1, open, seed)
			if err != nil {
				return outcome{}, err
			}
			p.record(ls)
			simSecs := openSecs - p.buildSecs - p.packSecs
			ls.add("control.open_loop_s", openSecs)
			ls.add("control.overhead_s", runSecs-openSecs)
			ls.add("storage.window_s", openSecs/float64(windows))
			ls.add("storage.sim_s", simSecs)
			ls.add("storage.alloc_mb", openMB-p.buildMB-p.packMB)
			ls.add("farm.run_s", openSecs)
			simCounts(ls, res, rm, simSecs, shards)
			return ctrlOutcome(r), nil
		},
		check: func(seed int64) error {
			prev := farm.SetSimWorkers(1)
			one, err := run(seed)
			farm.SetSimWorkers(n)
			if err != nil {
				return err
			}
			many, err := run(seed)
			farm.SetSimWorkers(prev)
			if err != nil {
				return err
			}
			return sameJSON("sim workers 1", one, fmt.Sprintf("sim workers %d", n), many)
		},
		obsLeg: func(seed int64) error { _, err := run(seed); return err },
	}
}

// sameJSON compares two results byte for byte through their JSON form.
func sameJSON(aName string, a any, bName string, b any) error {
	ab, err := json.Marshal(a)
	if err != nil {
		return err
	}
	bb, err := json.Marshal(b)
	if err != nil {
		return err
	}
	if !bytes.Equal(ab, bb) {
		return fmt.Errorf("%s and %s results differ (%d vs %d JSON bytes)", aName, bName, len(ab), len(bb))
	}
	return nil
}

// obsLegs times the off / nil-sink / enabled observability legs of one
// run, interleaved, and returns the nil-sink and enabled overheads as
// fractions of the off leg's median.
func obsLegs(leg func(int64) error, seed int64, reps int) (nilFrac, enabledFrac float64, err error) {
	var off, nilSink, enabled []float64
	timeLeg := func(o *obs.RunObserver) (float64, error) {
		prev := farm.SetRunObserver(o)
		defer farm.SetRunObserver(prev)
		start := time.Now()
		err := leg(seed)
		return time.Since(start).Seconds(), err
	}
	for r := 0; r < reps; r++ {
		s, err := timeLeg(nil)
		if err != nil {
			return 0, 0, err
		}
		off = append(off, s)
		if s, err = timeLeg(&obs.RunObserver{}); err != nil {
			return 0, 0, err
		}
		nilSink = append(nilSink, s)
		if s, err = timeLeg(&obs.RunObserver{
			Trace:     obs.NewTraceRecorder(),
			Telemetry: obs.NewTelemetryWriter(io.Discard),
			Metrics:   newRunMetrics(),
		}); err != nil {
			return 0, 0, err
		}
		enabled = append(enabled, s)
	}
	base := median(off)
	return median(nilSink)/base - 1, median(enabled)/base - 1, nil
}

// sane rejects outcomes no correct simulation can produce.
func sane(o outcome) error {
	switch {
	case o.simReqs <= 0:
		return fmt.Errorf("no simulated request completed")
	case !(o.saving > -1 && o.saving < 1):
		return fmt.Errorf("power-saving ratio %v outside (-1, 1)", o.saving)
	case !(o.p95 > 0) || math.IsInf(o.p95, 0):
		return fmt.Errorf("p95 response %v is not a positive time", o.p95)
	}
	return nil
}
