// Package stats provides the streaming statistics used by the disk-farm
// simulator and the experiment harness: numerically stable moments
// (Welford), exact and histogram-based quantiles, time-weighted
// averages for quantities like queue length, and a simple least-squares
// line fit used to verify the log-log linearity of the synthesized NERSC
// file-size distribution (paper Section 5.1).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates count, mean, variance, min and max in a single
// pass using Welford's numerically stable recurrence. The zero value is
// ready to use.
type Welford struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge combines another accumulator into w (parallel reduction), using
// the Chan et al. pairwise update. Experiment workers accumulate
// per-shard statistics and merge at the end.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	delta := o.mean - w.mean
	total := w.n + o.n
	w.mean += delta * float64(o.n) / float64(total)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(total)
	w.n = total
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
}

// Count returns the number of observations.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Sum returns mean*count.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// String summarizes the accumulator for logs and tables.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		w.n, w.Mean(), w.Std(), w.min, w.max)
}

// Sample collects observations for exact quantiles. The simulations in
// this repository top out around a few hundred thousand response-time
// samples per run, so retaining them exactly is cheaper and more faithful
// than a sketch.
type Sample struct {
	xs     []float64
	sorted bool
	w      Welford
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.w.Add(x)
}

// Reset empties the sample while keeping its backing storage, so a
// per-window accumulator reset does not reallocate every epoch.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
	s.w = Welford{}
}

// Count returns the number of observations.
func (s *Sample) Count() int64 { return int64(len(s.xs)) }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 { return s.w.Mean() }

// Std returns the sample standard deviation.
func (s *Sample) Std() float64 { return s.w.Std() }

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.w.Min() }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.w.Max() }

// Quantile returns the q-quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It returns 0 on an empty
// sample and panics on q outside [0,1].
func (s *Sample) Quantile(q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if n == 1 {
		return s.xs[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns Quantile(0.5).
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// AppendValues appends the sample's observations to dst and returns
// the extended slice. The order is unspecified (Quantile sorts the
// backing array in place); callers that need a canonical order must
// sort the result. Parallel reductions that merge per-shard samples
// exactly should instead take each shard's SortedValues and combine
// them with MergeSorted: any split of the same observations merges to
// the same sorted array, bit for bit, without sorting the union.
func (s *Sample) AppendValues(dst []float64) []float64 {
	return append(dst, s.xs...)
}

// SortedValues sorts the observations in place, unless they already
// are, and returns them in ascending order (see SortFloat64s; scratch
// is its radix buffer, and nil or a short one means a comparison
// sort). The slice aliases the sample: it is valid until the next Add
// or Reset and must not be modified.
func (s *Sample) SortedValues(scratch []float64) []float64 {
	if !s.sorted {
		SortFloat64s(s.xs, scratch)
		s.sorted = true
	}
	return s.xs
}

// SortedMean returns the mean of xs accumulated in index order. On a
// sorted slice this is a canonical reduction: any partition of the same
// observations sorts to the same array, so the fold — unlike a
// streaming mean, whose floating-point rounding depends on arrival
// order — is identical no matter how the samples were produced.
func SortedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SortedQuantile returns the q-quantile of an ascending-sorted slice
// using exactly Sample.Quantile's interpolation between order
// statistics, so a merged-then-sorted union of per-shard samples
// reproduces the single-sample quantile bit for bit. It returns 0 on an
// empty slice and panics on q outside [0,1].
func SortedQuantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return xs[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// TimeWeighted integrates a piecewise-constant signal over simulated
// time: call Set at each change and Finish at the end of the run. The
// simulator uses it for average queue length and average active-disk
// count.
type TimeWeighted struct {
	lastT    float64
	value    float64
	integral float64
	started  bool
	startT   float64
}

// Set records that the signal takes value v from time t onward. Calls
// must have nondecreasing t.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.startT = t
	} else {
		if t < tw.lastT {
			panic(fmt.Sprintf("stats: TimeWeighted.Set time went backwards: %v < %v", t, tw.lastT))
		}
		tw.integral += tw.value * (t - tw.lastT)
	}
	tw.lastT = t
	tw.value = v
}

// Integral returns the integral of the signal up to time t (extending
// the most recent value).
func (tw *TimeWeighted) Integral(t float64) float64 {
	if !tw.started {
		return 0
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("stats: TimeWeighted.Integral(%v) before last Set(%v)", t, tw.lastT))
	}
	return tw.integral + tw.value*(t-tw.lastT)
}

// Average returns the time-weighted mean of the signal over
// [start, t].
func (tw *TimeWeighted) Average(t float64) float64 {
	if !tw.started || t <= tw.startT {
		return 0
	}
	return tw.Integral(t) / (t - tw.startT)
}

// Histogram is a fixed-width linear-bin histogram over [lo, hi);
// observations outside the range land in saturating edge bins.
type Histogram struct {
	lo, width float64
	counts    []int64
	total     int64
}

// NewHistogram returns a histogram with bins equal-width bins spanning
// [lo, hi). It panics unless hi > lo and bins >= 1.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) bins=%d", lo, hi, bins))
	}
	return &Histogram{lo: lo, width: (hi - lo) / float64(bins), counts: make([]int64, bins)}
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.lo) / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.total }

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) int64 { return h.counts[i] }

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + (float64(i)+0.5)*h.width
}

// LogHistogram buckets positive observations into logarithmically spaced
// bins over [lo, hi). The paper classifies the 88,631 NERSC files into 80
// size bins this way before checking Zipf linearity in log-log scale.
type LogHistogram struct {
	logLo, logW float64
	counts      []int64
	total       int64
}

// NewLogHistogram returns a histogram with bins log-spaced bins spanning
// [lo, hi); lo must be > 0.
func NewLogHistogram(lo, hi float64, bins int) *LogHistogram {
	if lo <= 0 || hi <= lo || bins < 1 {
		panic(fmt.Sprintf("stats: invalid log histogram [%v,%v) bins=%d", lo, hi, bins))
	}
	logLo := math.Log(lo)
	return &LogHistogram{
		logLo:  logLo,
		logW:   (math.Log(hi) - logLo) / float64(bins),
		counts: make([]int64, bins),
	}
}

// Add counts one observation; non-positive values saturate into bin 0.
func (h *LogHistogram) Add(x float64) {
	i := 0
	if x > 0 {
		i = int((math.Log(x) - h.logLo) / h.logW)
	}
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.total++
}

// Count returns the total number of observations.
func (h *LogHistogram) Count() int64 { return h.total }

// Bins returns the number of bins.
func (h *LogHistogram) Bins() int { return len(h.counts) }

// Bin returns the count in bin i.
func (h *LogHistogram) Bin(i int) int64 { return h.counts[i] }

// BinCenter returns the geometric midpoint of bin i.
func (h *LogHistogram) BinCenter(i int) float64 {
	return math.Exp(h.logLo + (float64(i)+0.5)*h.logW)
}

// Proportions returns each bin's share of the total (empty histogram
// yields all zeros).
func (h *LogHistogram) Proportions() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}

// LinearFit is an ordinary least-squares fit y = Slope*x + Intercept
// with coefficient of determination R2.
type LinearFit struct {
	Slope, Intercept, R2 float64
	N                    int
}

// FitLine computes the least-squares line through (x[i], y[i]). It
// panics when the slices differ in length and returns a zero fit for
// fewer than two points.
func FitLine(x, y []float64) LinearFit {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: FitLine length mismatch %d vs %d", len(x), len(y)))
	}
	n := len(x)
	if n < 2 {
		return LinearFit{N: n}
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{N: n}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx, N: n}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = 1
	}
	return fit
}
