package farm

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"testing"
)

// traceHash digests every field of a trace, so any write to a shared
// trace shows.
func traceHash(t *testing.T, w WorkloadSpec) uint64 {
	t.Helper()
	b, err := json.Marshal(w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// memoGrids are sweeps whose points share inputs in every way the memo
// keys them: one trace for all points, one allocation per load bound
// or per seed, plan-only points, seed-stepped random placement, and a
// pre-built trace shared by pointer.
func memoGrids(t *testing.T) map[string]Sweep {
	t.Helper()
	base := Spec{Name: "memo", Workload: SyntheticWorkload(miniSynthetic(300, 2)), Alloc: Packed(0.7)}
	tr, err := BuildTrace(base.Workload, 5)
	if err != nil {
		t.Fatal(err)
	}
	thresholds := Axis{Kind: AxisSpinThreshold, Values: []float64{30, 600}}
	loads := Axis{Kind: AxisCapL, Values: []float64{0.5, 0.8}}
	random := base
	random.Alloc = AllocSpec{Kind: AllocRandom, CapL: 0.7}
	traced := base
	traced.Workload = TraceWorkload(tr)
	return map[string]Sweep{
		"threshold x L":    {Name: "tl", Base: base, Axes: []Axis{thresholds, loads}},
		"threshold x farm": fixtureSweep(),
		"plan-only L": {Name: "plan", Base: base, PlanOnly: true, Axes: []Axis{
			{Kind: AxisCapL, Values: []float64{0.5, 0.7, 0.9}},
			{Kind: AxisFarmSize, Values: []float64{8, 12}},
		}},
		"random x seed-step": {Name: "rnd", Base: random, Axes: []Axis{
			thresholds,
			{Kind: AxisFarmSize, Values: []float64{8, 12}, SeedStep: 1},
		}},
		"trace workload": {Name: "trace", Base: traced, Axes: []Axis{thresholds, loads}},
	}
}

// TestRunPointMatchesRun proves the input memo invisible: every point
// of a memoized sweep — run four at a time, so the race detector sees
// concurrent first builds — equals a fresh Run (or Plan) of the same
// spec and seed, byte for byte, and the shared trace is left as it was.
func TestRunPointMatchesRun(t *testing.T) {
	const seed = 5
	for name, sw := range memoGrids(t) {
		t.Run(name, func(t *testing.T) {
			var before uint64
			if sw.Base.Workload.Kind == WorkloadTrace {
				before = traceHash(t, sw.Base.Workload)
			}
			res, err := RunSweep(sw, seed, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Points {
				var got, want any
				if sw.PlanOnly {
					fresh, err := Plan(p.Spec, seed+p.SeedOffset)
					if err != nil {
						t.Fatal(err)
					}
					got, want = p.Alloc, fresh
				} else {
					fresh, err := Run(p.Spec, seed+p.SeedOffset)
					if err != nil {
						t.Fatal(err)
					}
					got, want = p.Metrics, fresh
				}
				if g, w := mustJSON(t, got), mustJSON(t, want); string(g) != string(w) {
					t.Errorf("point %s differs from a fresh run", p.Label)
				}
			}
			if sw.Base.Workload.Kind == WorkloadTrace && traceHash(t, sw.Base.Workload) != before {
				t.Error("the sweep modified its shared trace")
			}
		})
	}
}

// runCompiled runs every point of c on four workers, as RunSweep does.
func runCompiled(t *testing.T, c *CompiledSweep) {
	t.Helper()
	err := parallelFor(context.Background(), c.NumPoints(), 4, func(i int) error {
		_, err := c.RunPoint(i)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInputMemoBuildsOnce pins what the memo builds and retains: the
// 16-point threshold x L grid of the threshold-sweep benchmark builds
// one trace and two packings and retains nothing once the sweep ends;
// a seed grid shares nothing, so nothing is memoized.
func TestInputMemoBuildsOnce(t *testing.T) {
	sw := Sweep{
		Name: "threshold-sweep",
		Base: Spec{Name: "threshold-sweep", Workload: SyntheticWorkload(miniSynthetic(300, 2)), Alloc: Packed(0.8)},
		Axes: []Axis{
			{Kind: AxisSpinThreshold, Values: []float64{30, 60, 120, 300, 900, 1800, 3600, 7200}},
			{Kind: AxisCapL, Values: []float64{0.5, 0.8}},
		},
	}
	c, err := Compile(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.memo.live(); n != 3 {
		t.Fatalf("compiled grid memoizes %d inputs, want 1 trace + 2 allocations", n)
	}
	runCompiled(t, c)
	if tr, al := c.memo.traceBuilds.Load(), c.memo.allocBuilds.Load(); tr != 1 || al != 2 {
		t.Errorf("16 points built %d traces and %d allocations, want 1 and 2", tr, al)
	}
	if n := c.memo.live(); n != 0 {
		t.Errorf("memo retains %d inputs after the sweep", n)
	}
	// A point run again (a re-leased coordinator point) rebuilds.
	if _, err := c.RunPoint(0); err != nil {
		t.Fatal(err)
	}
	if tr := c.memo.traceBuilds.Load(); tr != 2 || c.memo.live() != 0 {
		t.Errorf("re-run point: %d trace builds and %d live inputs, want 2 and 0", tr, c.memo.live())
	}

	sw.Axes = []Axis{{Kind: AxisSeed, Values: []float64{0, 1, 2, 3}}}
	c, err = Compile(sw, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.memo.live(); n != 0 {
		t.Fatalf("seed grid memoizes %d inputs, want none", n)
	}
	runCompiled(t, c)
	if tr, al := c.memo.traceBuilds.Load(), c.memo.allocBuilds.Load(); tr != 4 || al != 4 {
		t.Errorf("4 seeds built %d traces and %d allocations, want 4 and 4", tr, al)
	}
}
