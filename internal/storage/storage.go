// Package storage assembles the full disk-farm simulation the paper's
// Section 4 describes: a workload (trace), a file dispatcher holding the
// file→disk mapping table produced by an allocation algorithm, an
// optional LRU cache in front of the farm, and an array of simulated
// disks with idleness-threshold spin-down. Running a simulation yields
// the two quantities the paper trades off — energy consumed and request
// response time — plus the normalization baselines used in Figures 2–6.
package storage

import (
	"fmt"
	"math"

	"diskpack/internal/disk"
	"diskpack/internal/obs"
	"diskpack/internal/trace"
)

// Config parameterizes one simulation run.
type Config struct {
	// NumDisks is the farm size. It may exceed the number of disks the
	// allocation actually uses; unused disks spin down once and stay
	// in standby, still drawing standby power (as in the paper, where
	// both algorithms are charged for the full 100- or 96-disk farm).
	NumDisks int
	// DiskParams is the drive model (zero value → paper's Table 2).
	DiskParams disk.Params
	// PerDisk, when non-empty, gives each disk its own drive model
	// (heterogeneous farms: fast spindles for hot data, eco drives for
	// cold). Its length must equal NumDisks; DiskParams is ignored.
	// With a BreakEven threshold each disk uses its own break-even
	// time.
	PerDisk []disk.Params
	// IdleThreshold is the idleness threshold in seconds.
	// Use disk.NeverSpinDown to disable spin-down (the paper's
	// "no power-saving mechanism" baseline) or BreakEven to use the
	// drive's break-even time (53.3 s for the default drive).
	// Ignored when PolicyFactory is set.
	IdleThreshold float64
	// PolicyFactory, when non-nil, supplies a per-disk spin-down
	// policy (each disk needs its own instance because adaptive
	// policies carry state). See internal/policy for implementations.
	PolicyFactory func(diskID int) disk.SpinPolicy
	// CacheBytes enables a front LRU cache of that capacity when
	// positive (the paper uses 16 GB).
	CacheBytes int64
	// WriteBestFit switches the write-placement rule from the paper's
	// first-fit ("write into an already spinning disk if sufficient
	// space is found") to best-fit (tightest remaining space among
	// spinning disks). Both fall back to any disk with space when no
	// spinning disk fits.
	WriteBestFit bool
	// Reliability, when non-nil, enables wear-driven disk failures and
	// rebuild traffic (see ReliabilityConfig). CyclesPerDay and AFR are
	// reported for every run regardless.
	Reliability *ReliabilityConfig
	// Obs, when non-nil, receives observability output: per-disk state
	// timelines and boundary events into Obs.Trace, per-window records
	// into Obs.Telemetry, and live metrics into Obs.Metrics. Strictly
	// observation-only — results are byte-identical with or without it.
	Obs *obs.RunObserver
}

// Unplaced marks a file with no disk yet in an assignment: it must be
// written before it can be read (Section 1's write policy places it on
// a spinning disk at write time).
const Unplaced = -1

// BreakEven selects the drive's break-even idleness threshold at run
// time.
const BreakEven float64 = -1

// normalized returns the config with defaults applied.
func (c Config) normalized() (Config, error) {
	if c.DiskParams == (disk.Params{}) {
		c.DiskParams = disk.DefaultParams()
	}
	if err := c.DiskParams.Validate(); err != nil {
		return c, err
	}
	if len(c.PerDisk) > 0 {
		if len(c.PerDisk) != c.NumDisks {
			return c, fmt.Errorf("storage: PerDisk covers %d disks, NumDisks is %d", len(c.PerDisk), c.NumDisks)
		}
		for i, p := range c.PerDisk {
			if err := p.Validate(); err != nil {
				return c, fmt.Errorf("storage: disk %d: %w", i, err)
			}
		}
	} else if c.IdleThreshold == BreakEven {
		// Homogeneous farms resolve the sentinel once; heterogeneous
		// farms resolve it per disk at construction time.
		c.IdleThreshold = c.DiskParams.BreakEvenThreshold()
	}
	if c.PolicyFactory == nil && c.IdleThreshold != BreakEven &&
		(c.IdleThreshold < 0 || math.IsNaN(c.IdleThreshold)) {
		return c, fmt.Errorf("storage: invalid idleness threshold %v", c.IdleThreshold)
	}
	if c.NumDisks < 1 {
		return c, fmt.Errorf("storage: NumDisks %d must be >= 1", c.NumDisks)
	}
	if c.CacheBytes < 0 {
		return c, fmt.Errorf("storage: negative cache size %d", c.CacheBytes)
	}
	if c.Reliability != nil {
		if err := c.Reliability.validate(c.NumDisks); err != nil {
			return c, err
		}
	}
	return c, nil
}

// paramsFor returns disk i's drive model, shared rather than copied:
// every disk of a homogeneous farm points at the one DiskParams.
func (c *Config) paramsFor(i int) *disk.Params {
	if len(c.PerDisk) > 0 {
		return &c.PerDisk[i]
	}
	return &c.DiskParams
}

// Results reports the outcome of a run.
type Results struct {
	// Duration is the accounting horizon in seconds (the trace
	// duration).
	Duration float64
	// Energy is the farm's total consumption in joules over Duration.
	Energy float64
	// AvgPower is Energy/Duration in watts.
	AvgPower float64
	// NoSavingEnergy is the energy the same farm would consume serving
	// the same requests with spin-down disabled: every disk idles at
	// idle power between services. This is the paper's normalization
	// baseline ("spinning N disks without any power-saving
	// mechanism").
	NoSavingEnergy float64
	// PowerSavingRatio is 1 − Energy/NoSavingEnergy (Figure 5's
	// y-axis).
	PowerSavingRatio float64

	// Response-time distribution over completed requests, in seconds.
	RespMean, RespMedian, RespP95, RespP99, RespMax float64
	// Completed counts requests finished within the horizon;
	// Unfinished were still queued (or in flight) at the end.
	Completed, Unfinished int64
	// CacheHits/CacheMisses cover all lookups; HitRatio is their
	// ratio. All zero when no cache is configured.
	CacheHits, CacheMisses int64
	CacheHitRatio          float64

	// Write accounting (zero on read-only traces): WritesPlaced
	// counts files placed by the write policy, WritesToSpinning those
	// that landed on an already-spinning disk (the policy's goal),
	// and WritesRejected writes that fit on no disk.
	WritesPlaced, WritesToSpinning, WritesRejected int64
	// ReadsUnplaced counts reads of files never written — trace bugs
	// surfaced rather than silently dropped.
	ReadsUnplaced int64

	// Migration accounting (nonzero only when a streamed run's
	// controller actuated a mid-run reallocation, see RunControl):
	// MigrationEnergy is included in Energy but not in NoSavingEnergy
	// (the baseline never migrates).
	MigrationEnergy float64
	MigratedFiles   int64
	MigratedBytes   int64

	// Reliability accounting. Failures, DataLossEvents, Rebuilds,
	// RebuildTime (total seconds groups spent rebuilding — in-flight
	// rebuilds charge their degraded time up to the horizon), and
	// RebuildBytes are nonzero only with Config.Reliability set.
	// CyclesPerDay (farm-average start/stop cycles per disk-day) and
	// AFR (the wear model's annual failure rate extrapolated from each
	// disk's observed duty cycle, farm-averaged) are modeled for every
	// run so sweeps can select under a durability budget.
	Failures       int
	DataLossEvents int
	Rebuilds       int
	RebuildTime    float64
	RebuildBytes   int64
	CyclesPerDay   float64
	AFR            float64

	// Farm-level activity.
	SpinUps, SpinDowns int
	AvgStandbyDisks    float64 // time-average number of disks in standby
	PeakQueue          int     // largest per-disk queue seen
	PerDisk            []disk.Breakdown
}

// Run simulates the trace against a farm where file f lives on disk
// assign[f]. It returns an error for malformed inputs; the simulation
// itself is deterministic. The mechanics live in the shard machinery
// shared with RunStream (stream.go, parallel.go); Run is the classic
// un-windowed single-shard path.
func Run(tr *trace.Trace, assign []int, cfg Config) (*Results, error) {
	return RunParallel(tr, assign, cfg, ParallelConfig{})
}
