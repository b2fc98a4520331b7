package farm

import (
	"fmt"
	"math/rand"

	"diskpack/internal/core"
	"diskpack/internal/disk"
	"diskpack/internal/policy"
	"diskpack/internal/storage"
	"diskpack/internal/trace"
)

// Metrics is the unified result of one scenario run: the power and
// response-time quantities the paper trades off, the packing-quality
// numbers of Theorem 1, and per-disk utilization. Sim retains the full
// storage.Results (per-disk breakdowns, write accounting) for callers
// that need more.
type Metrics struct {
	Spec string // Spec.Name
	Seed int64

	// Farm shape.
	FarmSize  int // simulated disks, including never-used ones
	DisksUsed int // disks the allocation actually populated
	// Packing quality (zero for AllocExplicit, which has no items).
	LowerBound int
	Rho        float64

	// Energy and power.
	Duration         float64
	Energy           float64 // joules
	AvgPower         float64 // watts
	NoSavingEnergy   float64 // joules, spin-down disabled baseline
	PowerSavingRatio float64 // 1 − Energy/NoSavingEnergy

	// Response-time distribution, seconds.
	RespMean, RespMedian, RespP95, RespP99, RespMax float64

	// Request and activity counts.
	Completed, Unfinished int64
	SpinUps, SpinDowns    int
	AvgStandbyDisks       float64
	CacheHitRatio         float64

	// Reliability. Failures, DataLossEvents, Rebuilds, RebuildTime
	// (seconds spent rebuilding), and RebuildBytes are nonzero only for
	// specs with Reliability set; CyclesPerDay (farm-average start/stop
	// cycles per disk-day) and AFR (the wear model's annual failure
	// rate, extrapolated from the observed duty cycle) are modeled for
	// every run so sweeps can select under a durability budget.
	Failures       int
	DataLossEvents int
	Rebuilds       int
	RebuildTime    float64
	CyclesPerDay   float64
	AFR            float64

	// Utilization[i] is disk i's busy fraction (seek + transfer time
	// over the horizon).
	Utilization []float64

	Sim *storage.Results
}

// BuildTrace materializes the spec's workload. Generated workloads use
// the given seed in place of the config's; a pre-built trace is
// returned as-is.
func BuildTrace(w WorkloadSpec, seed int64) (*trace.Trace, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	switch w.Kind {
	case WorkloadTrace:
		return w.Trace, nil
	case WorkloadSynthetic:
		cfg := *w.Synthetic
		cfg.Seed = seed
		return cfg.Build()
	case WorkloadNERSC:
		cfg := *w.NERSC
		cfg.Seed = seed
		return cfg.Build()
	case WorkloadBursty:
		cfg := *w.Bursty
		cfg.Seed = seed
		return cfg.Build()
	default:
		return nil, fmt.Errorf("farm: unknown workload kind %d", int(w.Kind))
	}
}

// Items converts a trace's file population into packing items
// normalized against the spec's reference drive and the alloc spec's
// load constraint.
func (s Spec) Items(tr *trace.Trace) ([]core.Item, error) {
	ref := s.referenceParams()
	sizes := make([]int64, len(tr.Files))
	rates := make([]float64, len(tr.Files))
	for i, f := range tr.Files {
		sizes[i] = f.Size
		rates[i] = f.Rate
	}
	return core.BuildItems(sizes, rates, ref.ServiceTime, ref.CapacityBytes, s.Alloc.CapL)
}

// Allocation is the output of the allocation stage: the file→disk map
// plus the packing-quality numbers of Theorem 1 (zero for
// AllocExplicit, which has no items).
type Allocation struct {
	Assign     []int
	DisksUsed  int
	LowerBound int
	Rho        float64
	// Bound is the Theorem 1 guarantee evaluated on the instance (+Inf
	// at rho = 1).
	Bound float64
}

// Plan runs only the workload-synthesis and allocation stages of a
// spec — no simulation. Use it to size a shared farm across a sweep of
// specs before the real runs; like Run it is a pure function of
// (spec, seed).
func Plan(spec Spec, seed int64) (*Allocation, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tr, err := spec.buildTrace(seed)
	if err != nil {
		return nil, err
	}
	return spec.allocate(tr, seed+1)
}

// buildTrace is BuildTrace framed with the spec's name.
func (s Spec) buildTrace(seed int64) (*trace.Trace, error) {
	tr, err := BuildTrace(s.Workload, seed)
	if err != nil {
		return nil, fmt.Errorf("farm %s: workload: %w", s.Name, err)
	}
	return tr, nil
}

// inputs is the input stage of an open-loop run: the workload trace at
// seed and its allocation at seed+1. Its outputs depend only on the
// workload, the allocation spec, the groups, and the seed, which is what
// lets a compiled sweep share them among points (see inputMemo).
func (s Spec) inputs(seed int64) (*trace.Trace, *Allocation, error) {
	tr, err := s.buildTrace(seed)
	if err != nil {
		return nil, nil, err
	}
	alloc, err := s.allocate(tr, seed+1)
	if err != nil {
		return nil, nil, allocErr(s, err)
	}
	return tr, alloc, nil
}

// allocErr frames an allocation-stage error with the spec's name.
func allocErr(s Spec, err error) error {
	return fmt.Errorf("farm %s: allocation: %w", s.Name, err)
}

// allocate runs the spec's allocation strategy over the trace's files.
func (s Spec) allocate(tr *trace.Trace, seed int64) (*Allocation, error) {
	if s.Alloc.Kind == AllocExplicit {
		used := 0
		for _, d := range s.Alloc.Assign {
			if d+1 > used {
				used = d + 1
			}
		}
		return &Allocation{Assign: s.Alloc.Assign, DisksUsed: used}, nil
	}
	items, err := s.Items(tr)
	if err != nil {
		return nil, err
	}
	var a *core.Assignment
	switch s.Alloc.Kind {
	case AllocPack:
		a, err = core.PackDisks(items)
	case AllocPackV:
		a, err = core.PackDisksV(items, s.Alloc.V)
	case AllocRandom:
		n := s.Alloc.Disks
		if n == 0 {
			ref, err2 := core.PackDisks(items)
			if err2 != nil {
				return nil, err2
			}
			n = ref.NumDisks
		}
		a, err = core.RandomAssignCapacity(items, n, rand.New(rand.NewSource(seed)))
	case AllocFirstFit:
		a, err = core.FirstFit(items)
	case AllocFirstFitDecreasing:
		a, err = core.FirstFitDecreasing(items)
	case AllocBestFit:
		a, err = core.BestFit(items)
	case AllocChangHwangPark:
		a, err = core.ChangHwangPark(items)
	default:
		return nil, fmt.Errorf("farm: unknown allocation kind %d", int(s.Alloc.Kind))
	}
	if err != nil {
		return nil, err
	}
	return &Allocation{
		Assign:     a.DiskOf,
		DisksUsed:  a.NumDisks,
		LowerBound: core.LowerBoundDisks(items),
		Rho:        core.Rho(items),
		Bound:      core.ApproxBound(items),
	}, nil
}

// spinConfig maps the spin spec onto storage.Config fields. perDisk is
// the heterogeneous parameter slice (nil for homogeneous farms);
// adaptive and randomized policies are centred on each disk's own
// break-even time.
func (s Spec) spinConfig(perDisk []disk.Params, seed int64) (threshold float64, factory func(int) disk.SpinPolicy, err error) {
	paramsAt := func(i int) disk.Params {
		if len(perDisk) > 0 {
			return perDisk[i]
		}
		return disk.DefaultParams()
	}
	switch s.Spin.Kind {
	case SpinBreakEven:
		return storage.BreakEven, nil, nil
	case SpinFixed:
		return s.Spin.Threshold, nil, nil
	case SpinNever:
		return disk.NeverSpinDown, nil, nil
	case SpinImmediate:
		return 0, nil, nil
	case SpinAdaptive:
		return 0, func(i int) disk.SpinPolicy { return policy.NewAdaptive(paramsAt(i)) }, nil
	case SpinRandomized:
		return 0, func(i int) disk.SpinPolicy { return policy.NewRandomized(paramsAt(i), seed+int64(i)) }, nil
	case SpinTailAware:
		// Un-controlled runs behave as a fixed threshold at the initial
		// value; RunStream installs the shared per-group knobs instead.
		return 0, func(i int) disk.SpinPolicy { return policy.NewTunable(paramsAt(i), s.Spin.Threshold) }, nil
	case SpinCycleBudget:
		return 0, func(i int) disk.SpinPolicy {
			return policy.NewCycleBudget(paramsAt(i), s.Spin.Threshold, s.Spin.CycleBudget)
		}, nil
	default:
		return 0, nil, fmt.Errorf("farm: unknown spin kind %d", int(s.Spin.Kind))
	}
}

// reliabilityConfig maps the spec's reliability stage onto the
// storage config: the failure clocks are seeded at seed+3, after the
// trace (seed), allocation (seed+1), and spin policies (seed+2).
func (s Spec) reliabilityConfig(seed int64) *storage.ReliabilityConfig {
	if s.Reliability == nil {
		return nil
	}
	rc := &storage.ReliabilityConfig{
		GroupSize:    s.Reliability.GroupSize,
		RebuildBytes: s.Reliability.RebuildBytes,
		CheckEvery:   s.Reliability.CheckEvery,
		Seed:         seed + 3,
	}
	if s.Reliability.Wear != nil {
		rc.Wear = *s.Reliability.Wear
	}
	return rc
}

// resolveFarmSize settles the simulated farm size against the
// allocation and the spec's layout, returning the heterogeneous
// per-disk parameter slice (nil for homogeneous farms).
func resolveFarmSize(spec Spec, alloc *Allocation) (int, []disk.Params, error) {
	farmSize := alloc.DisksUsed
	perDisk := spec.perDiskParams()
	if len(perDisk) > 0 {
		farmSize = len(perDisk)
		if alloc.DisksUsed > farmSize {
			return 0, nil, fmt.Errorf("farm %s: allocation uses %d disks but groups provide only %d",
				spec.Name, alloc.DisksUsed, farmSize)
		}
	} else if spec.FarmSize > farmSize {
		farmSize = spec.FarmSize
	}
	if farmSize < 1 {
		farmSize = 1
	}
	return farmSize, perDisk, nil
}

// assembleMetrics folds a simulation result into the unified Metrics.
func assembleMetrics(spec Spec, seed int64, farmSize int, alloc *Allocation, res *storage.Results) *Metrics {
	m := &Metrics{
		Spec:             spec.Name,
		Seed:             seed,
		FarmSize:         farmSize,
		DisksUsed:        alloc.DisksUsed,
		LowerBound:       alloc.LowerBound,
		Rho:              alloc.Rho,
		Duration:         res.Duration,
		Energy:           res.Energy,
		AvgPower:         res.AvgPower,
		NoSavingEnergy:   res.NoSavingEnergy,
		PowerSavingRatio: res.PowerSavingRatio,
		RespMean:         res.RespMean,
		RespMedian:       res.RespMedian,
		RespP95:          res.RespP95,
		RespP99:          res.RespP99,
		RespMax:          res.RespMax,
		Completed:        res.Completed,
		Unfinished:       res.Unfinished,
		SpinUps:          res.SpinUps,
		SpinDowns:        res.SpinDowns,
		AvgStandbyDisks:  res.AvgStandbyDisks,
		CacheHitRatio:    res.CacheHitRatio,
		Failures:         res.Failures,
		DataLossEvents:   res.DataLossEvents,
		Rebuilds:         res.Rebuilds,
		RebuildTime:      res.RebuildTime,
		CyclesPerDay:     res.CyclesPerDay,
		AFR:              res.AFR,
		Utilization:      make([]float64, farmSize),
		Sim:              res,
	}
	if res.Duration > 0 {
		for i, b := range res.PerDisk {
			m.Utilization[i] = (b.Durations[disk.Seeking] + b.Durations[disk.Transferring]) / res.Duration
		}
	}
	return m
}

// controlRunner executes controlled specs (Spec.Control != nil). The
// farm engine cannot depend on internal/control — control sits above
// it — so control registers its executor here at init time, and Run
// dispatches through the hook. Every grid executor (sweeps, shards,
// the coordinator) funnels through Run, so registering once makes
// controlled specs first-class everywhere.
var controlRunner func(Spec, int64) (*Metrics, error)

// RegisterControlRunner installs the executor for controlled specs
// (called by internal/control's init).
func RegisterControlRunner(fn func(Spec, int64) (*Metrics, error)) { controlRunner = fn }

// Run compiles the spec into a simulation and executes it. It is a pure
// function of (spec, seed): the same inputs always produce identical
// Metrics. Controlled specs (Spec.Control != nil) dispatch to the
// closed-loop executor internal/control registers; everything else
// runs open-loop here.
func Run(spec Spec, seed int64) (*Metrics, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Control != nil {
		if controlRunner == nil {
			return nil, fmt.Errorf("farm %s: spec asks for controller %q but no control runner is registered (import internal/control)",
				spec.Name, spec.Control.Controller)
		}
		return controlRunner(spec, seed)
	}
	tr, alloc, err := spec.inputs(seed)
	if err != nil {
		return nil, err
	}
	return spec.simulate(seed, tr, alloc)
}

// simulate is the simulate stage of an open-loop run: it sizes the
// farm, maps the spin policy, runs the storage simulation over the
// prepared inputs, and folds the result into Metrics. It only reads tr
// and alloc, so one set of inputs can feed any number of runs,
// concurrently too.
func (s Spec) simulate(seed int64, tr *trace.Trace, alloc *Allocation) (*Metrics, error) {
	farmSize, perDisk, err := resolveFarmSize(s, alloc)
	if err != nil {
		return nil, err
	}
	threshold, factory, err := s.spinConfig(perDisk, seed+2)
	if err != nil {
		return nil, err
	}
	res, err := storage.RunParallel(tr, alloc.Assign, storage.Config{
		NumDisks:      farmSize,
		PerDisk:       perDisk,
		IdleThreshold: threshold,
		PolicyFactory: factory,
		CacheBytes:    s.CacheBytes,
		WriteBestFit:  s.WriteBestFit,
		Reliability:   s.reliabilityConfig(seed),
		Obs:           CurrentRunObserver(),
	}, storage.ParallelConfig{Workers: SimWorkers(), Label: s.Name})
	if err != nil {
		return nil, fmt.Errorf("farm %s: simulation: %w", s.Name, err)
	}
	return assembleMetrics(s, seed, farmSize, alloc, res), nil
}
