// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per artifact. Each runs its experiment at a reduced
// scale (benchScale) per iteration and reports the headline quantity
// of that artifact as a custom metric, so `go test -bench=.` both
// exercises the full pipeline and prints the reproduced values.
// cmd/experiments -scale 1 produces the paper-scale numbers recorded in
// EXPERIMENTS.md.
package diskpack

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"testing"

	"diskpack/internal/control"
	"diskpack/internal/core"
	"diskpack/internal/disk"
	"diskpack/internal/exp"
	"diskpack/internal/farm"
	"diskpack/internal/obs"
	"diskpack/internal/storage"
	"diskpack/internal/trace"
	"diskpack/internal/workload"
)

// benchScale keeps a full experiment sweep around a second per
// iteration.
const benchScale = 0.05

func benchOpts() exp.Options { return exp.Options{Scale: benchScale, Seed: 1} }

// BenchmarkTable1 regenerates the Table 1 workload parameters and
// reports the realized total space requirement (paper: 12.86 TB).
func BenchmarkTable1(b *testing.B) {
	var totalTB float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table1(exp.Options{Scale: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		totalTB = t.Rows[3][2]
	}
	b.ReportMetric(totalTB, "total-TB")
}

// BenchmarkTable2 regenerates the drive model constants and reports the
// derived break-even idleness threshold (paper: 53.3 s).
func BenchmarkTable2(b *testing.B) {
	var breakEven float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Table2(exp.Options{Scale: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		breakEven = t.Rows[10][2]
	}
	b.ReportMetric(breakEven, "break-even-s")
}

// BenchmarkFigure2 regenerates the power-saving-vs-R sweep and reports
// the saving ratio at R=4, L=80% (paper: >0.6 for R ≤ 4).
func BenchmarkFigure2(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		f2, _, err := exp.Fig23(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		col, _ := f2.Column("L=80%")
		saving = col[3] // R = 4
	}
	b.ReportMetric(saving, "saving@R4L80")
}

// BenchmarkFigure3 regenerates the response-time-ratio sweep and
// reports the ratio at R=6, L=80% (paper: ratios within 0.5–2.5).
func BenchmarkFigure3(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, f3, err := exp.Fig23(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		col, _ := f3.Column("L=80%")
		ratio = col[5] // R = 6
	}
	b.ReportMetric(ratio, "resp-ratio@R6L80")
}

// BenchmarkFigure4 regenerates the power/response trade-off versus L at
// R=6 and reports the power spread between L=0.4 and L=0.9 (paper:
// power falls as L rises).
func BenchmarkFigure4(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		f4, err := exp.Fig4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		power, _ := f4.Column("Power(W)")
		drop = power[0] - power[len(power)-1]
	}
	b.ReportMetric(drop, "power-drop-W")
}

// BenchmarkFigure5 regenerates the power-saving-vs-threshold sweep on
// the NERSC workload and reports Pack_Disk's saving at the 0.5 h
// threshold (paper: ≈0.85 on a 96-disk farm).
func BenchmarkFigure5(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		f5, _, err := exp.Fig56(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		col, _ := f5.Column("Pack_Disk")
		saving = col[4] // 0.5 h
	}
	b.ReportMetric(saving, "saving@0.5h")
}

// BenchmarkFigure6 regenerates the response-time-vs-threshold sweep and
// reports RND's mean response at the 0.5 h threshold (paper: ≈10 s,
// the threshold needed to keep random placement under 10 s).
func BenchmarkFigure6(b *testing.B) {
	var resp float64
	for i := 0; i < b.N; i++ {
		_, f6, err := exp.Fig56(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		col, _ := f6.Column("RND")
		resp = col[4] // 0.5 h
	}
	b.ReportMetric(resp, "RND-resp-s@0.5h")
}

// BenchmarkVSweep regenerates the Pack_Disk_v ablation (paper: v = 4
// ideal) and reports the response-time gain of v=4 over v=1. It runs
// at a larger scale than the other benches: on a farm of fewer than
// ~10 disks the group variant spreads over the whole farm and the
// comparison loses meaning.
func BenchmarkVSweep(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		t, err := exp.VSweep(exp.Options{Scale: 0.15, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		resp, _ := t.Column("RespTime(s)")
		gain = resp[0] - resp[3] // v=1 minus v=4
	}
	b.ReportMetric(gain, "v4-resp-gain-s")
}

// BenchmarkPackQuality regenerates the allocator comparison and reports
// Pack_Disks' gap to the lower bound at L=0.7 (Theorem 1 in practice).
func BenchmarkPackQuality(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		t, err := exp.PackQuality(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		lb, _ := t.Column("LowerBound")
		pd, _ := t.Column("Pack_Disks")
		gap = pd[3] - lb[3]
	}
	b.ReportMetric(gap, "disks-over-LB@L0.7")
}

// BenchmarkPolicies regenerates the spin-down policy ablation and
// reports the spin-up reduction of the adaptive policy vs the fixed
// break-even threshold under Pack_Disks.
func BenchmarkPolicies(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Policies(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		spin, _ := t.Column("Pack:spinups")
		if spin[2] > 0 {
			reduction = 1 - spin[3]/spin[2] // adaptive vs break-even
		}
	}
	b.ReportMetric(reduction, "adaptive-spinup-cut")
}

// BenchmarkAnalysis regenerates the analytic-vs-simulated validation
// and reports the worst relative power error across the L sweep.
func BenchmarkAnalysis(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Analysis(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		pred, _ := t.Column("PredPower(W)")
		sim, _ := t.Column("SimPower(W)")
		worst = 0
		for j := range pred {
			rel := (pred[j] - sim[j]) / sim[j]
			if rel < 0 {
				rel = -rel
			}
			if rel > worst {
				worst = rel
			}
		}
	}
	b.ReportMetric(worst*100, "max-power-err-%")
}

// BenchmarkReorg regenerates the semi-dynamic reorganization
// comparison at full scale (cheap: packing dominates) and reports the
// migration saving of the incremental §6 rule over full repacking.
func BenchmarkReorg(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		t, err := exp.Reorg(exp.Options{Scale: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		mig, _ := t.Column("MigratedGB")
		if mig[1] > 0 {
			ratio = mig[2] / mig[1] // incremental / full
		}
	}
	b.ReportMetric(ratio, "incr-migration-frac")
}

// BenchmarkFarmRun exercises the scenario engine end to end on a
// mid-size spec — workload synthesis, Pack_Disks allocation, and the
// farm simulation all inside farm.Run — so engine-layer regressions
// (extra allocations, slower compile path) show up in the perf
// trajectory alongside the per-artifact benchmarks. It reports the
// run's power saving as a stability check on the engine's output.
func BenchmarkFarmRun(b *testing.B) {
	wl := workload.DefaultSynthetic(6, 0)
	wl.NumFiles = 4000
	wl.MinSize /= 10
	wl.MaxSize /= 10
	spec := farm.Spec{
		Name:     "bench",
		FarmSize: 40,
		Workload: farm.SyntheticWorkload(wl),
		Alloc:    farm.Packed(0.7),
		Spin:     farm.SpinSpec{Kind: farm.SpinBreakEven},
	}
	var saving float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := farm.Run(spec, 1)
		if err != nil {
			b.Fatal(err)
		}
		saving = m.PowerSavingRatio
	}
	b.ReportMetric(saving, "saving")
}

// BenchmarkSweep times the parallel grid engine on the
// threshold × farm-size fixture grid at several worker counts. The
// workers=1 sub-benchmark is the serial baseline; the perf trajectory
// tracks the speedup of the pooled runs over it (the grid's points are
// independent simulations, so 4 workers should cut wall-clock by well
// over 2×).
func BenchmarkSweep(b *testing.B) {
	wl := workload.DefaultSynthetic(4, 0)
	wl.NumFiles = 1500
	wl.MinSize /= 25
	wl.MaxSize /= 25
	sweep := farm.Sweep{
		Name: "bench",
		Base: farm.Spec{
			Name:     "bench",
			Workload: farm.SyntheticWorkload(wl),
			Alloc:    farm.Packed(0.7),
		},
		Axes: []farm.Axis{
			{Kind: farm.AxisSpinThreshold, Values: []float64{30, 120, 600, 1800}},
			{Kind: farm.AxisFarmSize, Values: []float64{12, 16, 20, 24}},
		},
	}
	// Each leg gates against its own committed baseline, and the
	// workers=4 leg additionally reports its measured speedup over the
	// workers=1 leg — on a multi-core machine that number is the
	// scaling check; on a single core it exposes the pool's overhead
	// (slightly below 1.0) instead of pretending to measure scaling.
	// The committed baselines were recorded on a single-core container
	// (see EXPERIMENTS.md §Performance), which is why workers=4 is not
	// faster there: 16 points × ~8 ms share one core, so the delta is
	// pure pool overhead. The gate still catches regressions — each
	// leg's ns/op is compared to its own history, never across legs.
	var refNs float64
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var saving float64
			for i := 0; i < b.N; i++ {
				res, err := farm.RunSweep(sweep, 1, workers)
				if err != nil {
					b.Fatal(err)
				}
				saving = res.Points[0].Metrics.PowerSavingRatio
			}
			b.ReportMetric(saving, "saving@p0")
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if workers == 1 {
				refNs = ns
			} else if refNs > 0 {
				b.ReportMetric(refNs/ns, "speedup-vs-1worker")
			}
		})
	}
}

// BenchmarkControlEpoch times the online control plane: the ON/OFF
// fixture run closed-loop under the tail-budget controller at a 200 s
// epoch (~40 windows per run), against the identical open-loop run.
// The controlled/open-loop ns/op delta in BENCH_ci.json is the control
// plane's overhead — telemetry windows plus controller decisions.
func BenchmarkControlEpoch(b *testing.B) {
	sc, ok := farm.Lookup("controlled-bursty")
	if !ok {
		b.Fatal("controlled-bursty not registered")
	}
	spec := sc.Spec
	cs := *spec.Control
	cs.Epoch = 200
	spec.Control = &cs
	open := spec
	open.Control = nil

	b.Run("open-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := farm.Run(open, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("controlled", func(b *testing.B) {
		b.ReportAllocs()
		windows := 0
		for i := 0; i < b.N; i++ {
			res, err := control.RunSpec(spec, 1)
			if err != nil {
				b.Fatal(err)
			}
			windows = len(res.Windows)
		}
		b.ReportMetric(float64(windows), "windows")
	})
}

// millionDiskSetup builds the 2²⁰-disk, 10⁵-request epoch shared by
// the sequential and parallel million-disk benches.
func millionDiskSetup() (*trace.Trace, []int, storage.Config, int) {
	const (
		nDisks  = 1 << 20 // 1,048,576 drives
		nFiles  = 1 << 17 // 131,072 files on distinct disks
		nReqs   = 100_000
		horizon = 120.0 // seconds: past break-even plus spin-up tail
	)
	tr := &trace.Trace{Duration: horizon}
	tr.Files = make([]trace.FileInfo, nFiles)
	assign := make([]int, nFiles)
	for i := range tr.Files {
		tr.Files[i] = trace.FileInfo{ID: i, Size: 64 * disk.MB, Rate: 0.01}
		assign[i] = (i * (nDisks / nFiles)) % nDisks
	}
	rng := rand.New(rand.NewSource(9))
	tr.Requests = make([]trace.Request, nReqs)
	for r := range tr.Requests {
		tr.Requests[r] = trace.Request{
			Time:   horizon * float64(r) / nReqs,
			FileID: rng.Intn(nFiles),
		}
	}
	return tr, assign, storage.Config{NumDisks: nDisks, IdleThreshold: storage.BreakEven}, nReqs
}

// BenchmarkMillionDiskEpoch is the ROADMAP scale target in benchmark
// form: one epoch of a ~10⁶-disk farm at the break-even threshold. The
// farm is mostly cold — every disk arms an idle timeout at t=0 and
// spins down at 53.3 s — while 10⁵ requests land on a 128k-file active
// subset, forcing spin-ups and queueing behind wake-ups. Idle timeouts
// are settled lazily and each shard's disks live in one slab, so the
// cold disks cost construction and a settle at the horizon but no
// events and no per-disk allocations: events and allocations scale
// with the requests and the disks they touch, not with the farm.
// Reports wall-clock request throughput.
func BenchmarkMillionDiskEpoch(b *testing.B) {
	tr, assign, cfg, nReqs := millionDiskSetup()
	b.ReportAllocs()
	b.ResetTimer()
	var completed int64
	for i := 0; i < b.N; i++ {
		res, err := storage.Run(tr, assign, cfg)
		if err != nil {
			b.Fatal(err)
		}
		completed = res.Completed
	}
	if completed == 0 {
		b.Fatal("no requests completed")
	}
	b.ReportMetric(float64(nReqs*b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkMillionDiskEpochParallel shards the same epoch across
// worker goroutines. The classic (un-windowed) path needs exactly one
// barrier round, so the workers=1 leg measures the sharding machinery's
// fixed cost and the others measure scaling — near-linear on real
// cores, flat on a single-core machine where the legs gate scheduling
// overhead instead (each leg compares against its own committed
// baseline; see EXPERIMENTS.md §Parallel execution).
func BenchmarkMillionDiskEpochParallel(b *testing.B) {
	tr, assign, cfg, nReqs := millionDiskSetup()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var completed int64
			for i := 0; i < b.N; i++ {
				res, err := storage.RunParallel(tr, assign, cfg,
					storage.ParallelConfig{Workers: workers, Label: "million-disk"})
				if err != nil {
					b.Fatal(err)
				}
				completed = res.Completed
			}
			if completed == 0 {
				b.Fatal("no requests completed")
			}
			b.ReportMetric(float64(nReqs*b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkObsOverhead prices the observability layer on a windowed
// mid-size run. The three legs share one spec: "off" is the bare run,
// "nil-sink" installs a zero-value RunObserver (every tap fires, every
// sink is nil — the disabled path must cost nothing, and the nil-sink
// zero-alloc property is pinned exactly in internal/obs), and
// "enabled" records the full trace, telemetry (to io.Discard), and
// metrics registry, rebuilding the recorder each iteration so the
// timeline does not accumulate across runs. The off↔nil-sink delta is
// the price every un-instrumented run pays; off↔enabled is the price
// of -trace-out/-telemetry-out.
func BenchmarkObsOverhead(b *testing.B) {
	wl := workload.DefaultSynthetic(6, 0)
	wl.NumFiles = 4000
	wl.MinSize /= 10
	wl.MaxSize /= 10
	spec := farm.Spec{
		Name:     "bench-obs",
		FarmSize: 40,
		Workload: farm.SyntheticWorkload(wl),
		Alloc:    farm.Packed(0.7),
		Spin:     farm.SpinSpec{Kind: farm.SpinBreakEven},
	}
	runOnce := func(b *testing.B) {
		if _, err := farm.RunStream(spec, 1, 400, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b)
		}
	})
	b.Run("nil-sink", func(b *testing.B) {
		prev := farm.SetRunObserver(&obs.RunObserver{})
		defer farm.SetRunObserver(prev)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOnce(b)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := obs.NewTraceRecorder()
			tw := obs.NewTelemetryWriter(io.Discard)
			prev := farm.SetRunObserver(&obs.RunObserver{
				Trace:     rec,
				Telemetry: tw,
				Metrics:   obs.NewRunMetrics(obs.NewRegistry(), farm.RespBuckets()),
			})
			runOnce(b)
			farm.SetRunObserver(prev)
		}
	})
}

// packingInstance builds the skewed instance used by the complexity
// benchmarks (interleaved size- and load-heavy items trigger the
// eviction path).
func packingInstance(n int) []Item {
	rng := rand.New(rand.NewSource(42))
	items := make([]Item, n)
	for i := range items {
		if i%2 == 0 {
			items[i] = Item{ID: i, Size: 0.02 + 0.28*rng.Float64(), Load: 0.01 * rng.Float64()}
		} else {
			items[i] = Item{ID: i, Size: 0.01 * rng.Float64(), Load: 0.02 + 0.28*rng.Float64()}
		}
	}
	return items
}

// BenchmarkPackDisksScaling exercises the Section 3 complexity claim:
// Pack_Disks is O(n log n).
func BenchmarkPackDisksScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 40000} {
		items := packingInstance(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Pack(items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChangHwangParkScaling is the O(n²) comparator Pack_Disks
// improves upon.
func BenchmarkChangHwangParkScaling(b *testing.B) {
	for _, n := range []int{1000, 10000, 40000} {
		items := packingInstance(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ChangHwangPark(items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return strconv.Itoa(n/1000) + "k"
	}
	return strconv.Itoa(n)
}
