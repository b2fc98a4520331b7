package farm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// The streaming point-result seam under every sweep executor: Compile
// turns a Sweep into its grid exactly once, any point then executes
// individually by index (RunPoint), and a complete set of point
// results — whatever machines produced them, in whatever order — folds
// back into the exact SweepResult a single-process RunSweep would have
// returned (Assemble). RunSweep, RunShard, Merge, and the work-stealing
// coordinator (internal/coord) are all thin layers over this seam, so
// one implementation carries the byte-identity guarantee for all of
// them.

// CompiledSweep is a sweep compiled against a seed: the grid's points,
// executable one at a time. It is safe for concurrent use — RunPoint
// does not mutate the compiled points, and the input memo its points
// share builds each shared input once under a guard.
type CompiledSweep struct {
	decl   Sweep
	seed   int64
	points []Point
	memo   *inputMemo
}

// Compile validates the sweep and expands its grid. The returned value
// binds the sweep to the seed, so per-point seeds are fixed at compile
// time exactly as RunSweep fixes them.
func Compile(sweep Sweep, seed int64) (*CompiledSweep, error) {
	points, err := sweep.Points()
	if err != nil {
		return nil, err
	}
	return &CompiledSweep{decl: sweep, seed: seed, points: points, memo: newInputMemo(points, seed)}, nil
}

// Sweep returns the compiled grid's declaration.
func (c *CompiledSweep) Sweep() Sweep { return c.decl }

// Seed returns the sweep seed every point's seed derives from.
func (c *CompiledSweep) Seed() int64 { return c.seed }

// NumPoints returns the grid size.
func (c *CompiledSweep) NumPoints() int { return len(c.points) }

// Fingerprint returns Fingerprint(sweep, seed) for the compiled grid.
func (c *CompiledSweep) Fingerprint() string { return Fingerprint(c.decl, c.seed) }

// Fingerprint derives a short stable hash identifying one (sweep,
// seed): SHA-256 over the seed and the sweep's canonical JSON,
// truncated to 16 hex digits. It is the sweep identity observability
// uses — span IDs derive from it, and span logs from different sweeps
// refuse to merge. Sweeps that cannot marshal (custom axis functions)
// fall back to hashing the sweep name; such sweeps are not shardable,
// so their fingerprints never cross a process boundary.
func Fingerprint(sweep Sweep, seed int64) string {
	b, err := json.Marshal(sweep)
	if err != nil {
		b = []byte(sweep.Name)
	}
	h := sha256.New()
	h.Write(strconv.AppendInt(nil, seed, 10))
	h.Write([]byte{'\n'})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Label returns point i's label.
func (c *CompiledSweep) Label(i int) string { return c.points[i].Label }

// SeedOffset returns point i's seed offset from the sweep seed.
func (c *CompiledSweep) SeedOffset(i int) int64 { return c.points[i].SeedOffset }

// Descriptor returns point i as the wire/manifest form shard families
// and the coordinator hand to workers.
func (c *CompiledSweep) Descriptor(i int) ShardPoint {
	return ShardPoint{Index: i, Label: c.points[i].Label, SeedOffset: c.points[i].SeedOffset}
}

// RunPoint executes one grid point — farm.Run, or farm.Plan for
// plan-only sweeps — at seed + the point's SeedOffset, exactly as
// RunSweep would have run it. Points that share a trace or an
// allocation take it from the sweep's input memo instead of rebuilding
// it; the result is the same either way. Errors carry no grid context;
// callers wrap them with their own (sweep, shard, worker) framing.
func (c *CompiledSweep) RunPoint(i int) (ShardPointResult, error) {
	if i < 0 || i >= len(c.points) {
		return ShardPointResult{}, fmt.Errorf("farm: point %d outside the %d-point grid", i, len(c.points))
	}
	defer c.memo.release(i)
	p := &c.points[i]
	res := ShardPointResult{Index: i, Label: p.Label}
	var err error
	if p.Spec.Control != nil && !c.decl.PlanOnly {
		res.Metrics, err = Run(p.Spec, c.seed+p.SeedOffset)
	} else {
		res.Metrics, res.Alloc, err = c.runOpenLoop(i)
	}
	if err != nil {
		return ShardPointResult{}, err
	}
	// Every executor — in-process pool, shard runner, coordinator
	// worker — funnels through here, so this is the one place sweep
	// progress is counted.
	if o := CurrentRunObserver(); o != nil && o.Metrics != nil {
		o.Metrics.SweepPoints.Inc()
	}
	return res, nil
}

// runOpenLoop is Run (or Plan, for plan-only sweeps) of point i with
// its input stage served by the memo.
func (c *CompiledSweep) runOpenLoop(i int) (*Metrics, *Allocation, error) {
	p := &c.points[i]
	spec, seed := p.Spec, c.seed+p.SeedOffset
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	tr, err := c.memo.trace(i, spec, seed)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := c.memo.alloc(i, spec, seed, tr)
	if c.decl.PlanOnly {
		if err != nil {
			return nil, nil, err
		}
		// Each point gets its own copy of a shared allocation.
		own := *alloc
		own.Assign = slices.Clone(alloc.Assign)
		return nil, &own, nil
	}
	if err != nil {
		return nil, nil, allocErr(spec, err)
	}
	m, err := spec.simulate(seed, tr, alloc)
	return m, nil, err
}

// Check verifies a point descriptor against the compiled grid — the
// defense against executing work planned by a diverged engine build.
func (c *CompiledSweep) Check(sp ShardPoint) error {
	if sp.Index < 0 || sp.Index >= len(c.points) {
		return fmt.Errorf("farm: point index %d outside the %d-point grid", sp.Index, len(c.points))
	}
	p := &c.points[sp.Index]
	if p.Label != sp.Label || p.SeedOffset != sp.SeedOffset {
		return fmt.Errorf("farm: point %d (%q, seed offset %d) does not match the compiled grid (%q, %d) — planned by a diverged build?",
			sp.Index, sp.Label, sp.SeedOffset, p.Label, p.SeedOffset)
	}
	return nil
}

// CheckResult verifies a completed point against the compiled grid:
// in-range index, matching label, and the payload the sweep's mode
// calls for.
func (c *CompiledSweep) CheckResult(pr ShardPointResult) error {
	if pr.Index < 0 || pr.Index >= len(c.points) {
		return fmt.Errorf("farm: result index %d outside the %d-point grid", pr.Index, len(c.points))
	}
	if got := c.points[pr.Index].Label; got != pr.Label {
		return fmt.Errorf("farm: result point %d is %q, grid says %q — result from a different grid?", pr.Index, pr.Label, got)
	}
	if pr.Metrics != nil && pr.Alloc != nil {
		return fmt.Errorf("farm: result point %d carries both metrics and an allocation", pr.Index)
	}
	if !pr.complete(c.decl.PlanOnly) {
		return fmt.Errorf("farm: point %d (%s) is incomplete", pr.Index, pr.Label)
	}
	return nil
}

// Assemble folds a complete result set — exactly one result per grid
// point, in any order — into the SweepResult a single-process RunSweep
// would have produced, byte for byte: payloads are slotted into the
// compiled points by index and the sweep's selector applied to the
// finished grid. The compiled points are copied, so Assemble can run
// more than once (a restarted coordinator re-assembles).
func (c *CompiledSweep) Assemble(results []ShardPointResult) (*SweepResult, error) {
	points := make([]Point, len(c.points))
	copy(points, c.points)
	filled := make([]bool, len(points))
	for _, pr := range results {
		if err := c.CheckResult(pr); err != nil {
			return nil, err
		}
		if filled[pr.Index] {
			return nil, fmt.Errorf("farm: point %d (%s) appears in more than one result", pr.Index, pr.Label)
		}
		points[pr.Index].Metrics, points[pr.Index].Alloc = pr.Metrics, pr.Alloc
		filled[pr.Index] = true
	}
	for i, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("farm: missing point %d (%s) — did every point complete?", i, points[i].Label)
		}
	}
	res := &SweepResult{Sweep: c.decl, Points: points}
	res.Best, res.Front = c.decl.Select.pick(points)
	return res, nil
}
