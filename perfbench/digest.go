package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"diskpack/internal/control"
	"diskpack/internal/farm"
	"diskpack/internal/storage"
)

// A digest is an FNV-64a hash over a fixed list of simulated output
// scalars, serialized as little-endian bits (floats exactly). The field
// list is explicit rather than reflective, so a later change that only
// adds a field to Results keeps every committed digest valid.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) u(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) i(v int64)   { d.u(uint64(v)) }
func (d *digester) f(v float64) { d.u(math.Float64bits(v)) }
func (d *digester) s(v string)  { d.i(int64(len(v))); d.h.Write([]byte(v)) }
func (d *digester) b(v bool) {
	if v {
		d.u(1)
	} else {
		d.u(0)
	}
}

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// results hashes every scalar of storage.Results.
func (d *digester) results(r *storage.Results) {
	for _, v := range []float64{
		r.Duration, r.Energy, r.AvgPower, r.NoSavingEnergy, r.PowerSavingRatio,
		r.RespMean, r.RespMedian, r.RespP95, r.RespP99, r.RespMax,
		r.CacheHitRatio, r.MigrationEnergy, r.RebuildTime, r.CyclesPerDay, r.AFR,
		r.AvgStandbyDisks,
	} {
		d.f(v)
	}
	for _, v := range []int64{
		r.Completed, r.Unfinished, r.CacheHits, r.CacheMisses,
		r.WritesPlaced, r.WritesToSpinning, r.WritesRejected, r.ReadsUnplaced,
		r.MigratedFiles, r.MigratedBytes, r.RebuildBytes,
		int64(r.Failures), int64(r.DataLossEvents), int64(r.Rebuilds),
		int64(r.SpinUps), int64(r.SpinDowns), int64(r.PeakQueue),
	} {
		d.i(v)
	}
}

// perDisk extends the digest with every per-disk breakdown — used by
// the identity checks, which compare whole results, not committed
// values.
func (d *digester) perDisk(r *storage.Results) {
	d.i(int64(len(r.PerDisk)))
	for _, b := range r.PerDisk {
		for _, v := range b.Durations {
			d.f(v)
		}
		d.f(b.Energy)
		d.i(int64(b.SpinUps))
		d.i(int64(b.SpinDowns))
		d.i(b.Served)
		d.i(b.BytesRead)
	}
}

// farmRun hashes one farm-level run: the storage results plus the farm
// shape and packing-quality scalars farm.Metrics adds.
func (d *digester) farmRun(res *storage.Results, farmSize, disksUsed, lowerBound int, rho float64) {
	d.results(res)
	d.i(int64(farmSize))
	d.i(int64(disksUsed))
	d.i(int64(lowerBound))
	d.f(rho)
}

func metricsDigest(m *farm.Metrics) string {
	d := newDigester()
	d.farmRun(m.Sim, m.FarmSize, m.DisksUsed, m.LowerBound, m.Rho)
	return d.sum()
}

// sweepDigest covers every point's metrics in grid order and the chosen
// point.
func sweepDigest(r *farm.SweepResult) string {
	d := newDigester()
	for _, p := range r.Points {
		d.s(p.Label)
		d.farmRun(p.Metrics.Sim, p.Metrics.FarmSize, p.Metrics.DisksUsed, p.Metrics.LowerBound, p.Metrics.Rho)
	}
	d.i(int64(r.Best))
	return d.sum()
}

// controlDigest covers the metrics and the whole action log.
func controlDigest(r *control.Result) string {
	d := newDigester()
	m := r.Metrics
	d.farmRun(m.Sim, m.FarmSize, m.DisksUsed, m.LowerBound, m.Rho)
	d.i(int64(len(r.Windows)))
	for _, a := range r.Actions {
		d.i(int64(a.Window))
		d.i(int64(a.Action.Kind))
		d.i(int64(a.Action.Group))
		d.f(a.Action.Threshold)
		d.f(a.Action.Rate)
		d.b(a.Applied)
		d.s(a.Note)
		d.i(int64(a.MovedFiles))
		d.i(a.MovedBytes)
	}
	return d.sum()
}

// golden holds the committed digests: workload → effective seed →
// digest. Regenerate with -bless (see README.md).
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]map[int64]string {
	var g map[string]map[int64]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return g
}()
