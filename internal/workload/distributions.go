// Package workload generates the request workloads of the paper's two
// evaluations:
//
//   - the synthetic Table 1 workload — 40,000 files whose access
//     frequencies follow a Zipf-like distribution with
//     θ = log 0.6 / log 0.4 and whose sizes follow the inverse
//     Zipf-like distribution (most popular file smallest, 188 MB to
//     20 GB), driven by Poisson arrivals at rate R;
//   - a synthesizer for the NERSC 30-day read log (Section 5.1), which
//     matches every summary statistic the paper reports: 88,631 files,
//     115,832 requests over 720 hours (rate 0.044683/s), mean accessed
//     size ≈ 544 MB, Zipf-distributed sizes across 80 log-scale bins,
//     and no correlation between a file's size and its access
//     frequency. The real log is not public, so this synthetic
//     equivalent exercises the same code paths (see DESIGN.md).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// DefaultTheta is the paper's Zipf parameter θ = log 0.6 / log 0.4
// (Table 1), giving access frequencies p_i ∝ 1/i^(1−θ) with
// 1−θ ≈ 0.4427.
var DefaultTheta = math.Log(0.6) / math.Log(0.4)

// ZipfWeights returns the normalized access probabilities
// p_i = c / i^(1−θ) for i = 1..n (index 0 is rank 1). The paper prints
// the normalizer as "c = 1 − H" but normalization requires c = 1/H with
// H = Σ k^−(1−θ); we use the latter.
func ZipfWeights(n int, theta float64) []float64 {
	if n <= 0 {
		return nil
	}
	exp := 1 - theta
	w := make([]float64, n)
	var h float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -exp)
		h += w[i]
	}
	for i := range w {
		w[i] /= h
	}
	return w
}

// InverseZipfSizes returns file sizes for popularity ranks 1..n under
// the paper's inverse relationship: the most popular file is the
// smallest and sizes follow the same Zipf shape reversed,
//
//	size_i = maxSize · (n+1−i)^(−α),  α = ln(maxSize/minSize) / ln(n),
//
// so size_1 = minSize and size_n = maxSize exactly. With Table 1's
// parameters (n = 40,000, 188 MB, 20 GB) the total is ≈ 12.9 TB — the
// paper's reported space requirement of 12.86 TB, which confirms this
// reconstruction of the generator.
func InverseZipfSizes(n int, minSize, maxSize int64) []int64 {
	if n <= 0 {
		return nil
	}
	if minSize <= 0 || maxSize < minSize {
		panic(fmt.Sprintf("workload: invalid size range [%d,%d]", minSize, maxSize))
	}
	sizes := make([]int64, n)
	if n == 1 {
		sizes[0] = minSize
		return sizes
	}
	alpha := math.Log(float64(maxSize)/float64(minSize)) / math.Log(float64(n))
	for i := range sizes {
		rank := float64(n - i) // n+1-(i+1)
		sizes[i] = int64(float64(maxSize) * math.Pow(rank, -alpha))
	}
	return sizes
}

// Alias is Walker's alias method for O(1) sampling from a discrete
// distribution — the workload generators draw hundreds of thousands of
// file IDs per run.
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds the sampler from non-negative weights (need not be
// normalized). It panics if no weight is positive.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	var total float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("workload: negative or NaN weight %v", w))
		}
		total += w
	}
	if total <= 0 {
		panic("workload: all weights zero")
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	// Both worklists are stacks in one buffer: small grows up from the
	// front (top at work[ns-1]), large down from the back (top at
	// work[n-nl]). Every index sits on at most one list, so they never
	// meet.
	work := make([]int, n)
	ns, nl := 0, 0
	push := func(i int) {
		if scaled[i] < 1 {
			work[ns] = i
			ns++
		} else {
			nl++
			work[n-nl] = i
		}
	}
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		push(i)
	}
	for ns > 0 && nl > 0 {
		ns--
		s := work[ns]
		l := work[n-nl]
		nl--
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		push(l)
	}
	for _, i := range work[:ns] {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range work[n-nl:] {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws one index.
func (a *Alias) Sample(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// BoundedPareto is a power-law distribution truncated to [Min, Max]
// with tail exponent Alpha (density ∝ x^(−α−1)). In log-scale bins its
// mass decreases linearly in log-log — the Zipf-like size shape the
// paper measured in the NERSC log.
type BoundedPareto struct {
	Min, Max float64
	Alpha    float64
}

// Validate reports parameter problems.
func (b BoundedPareto) Validate() error {
	if b.Min <= 0 || b.Max <= b.Min {
		return fmt.Errorf("workload: BoundedPareto range [%v,%v] invalid", b.Min, b.Max)
	}
	if b.Alpha <= 0 || math.IsNaN(b.Alpha) {
		return fmt.Errorf("workload: BoundedPareto alpha %v invalid", b.Alpha)
	}
	return nil
}

// Mean returns the analytic expectation.
func (b BoundedPareto) Mean() float64 {
	m, M, a := b.Min, b.Max, b.Alpha
	r := math.Pow(m/M, a)
	if a == 1 {
		return m / (1 - r) * math.Log(M/m) * 1 // lim a->1 of the general form
	}
	return math.Pow(m, a) * a / (1 - r) * (math.Pow(M, 1-a) - math.Pow(m, 1-a)) / (1 - a)
}

// Sample draws one value by inverse-CDF.
func (b BoundedPareto) Sample(rng *rand.Rand) float64 { return b.sampler().draw(rng) }

// paretoSampler is a BoundedPareto with its per-distribution constants
// computed once: draw returns Sample's value bit for bit at half the
// math.Pow calls, for generators that draw many values.
type paretoSampler struct {
	min, span, invAlpha float64
}

func (b BoundedPareto) sampler() paretoSampler {
	return paretoSampler{min: b.Min, span: 1 - math.Pow(b.Min/b.Max, b.Alpha), invAlpha: 1 / b.Alpha}
}

func (p paretoSampler) draw(rng *rand.Rand) float64 {
	u := rng.Float64()
	return p.min / math.Pow(1-u*p.span, p.invAlpha)
}

// AlphaForMean finds the tail exponent for which a BoundedPareto on
// [min, max] has the requested mean, by bisection. It returns an error
// when the mean is outside the achievable range.
func AlphaForMean(min, max, mean float64) (float64, error) {
	if min <= 0 || max <= min {
		return 0, fmt.Errorf("workload: invalid range [%v,%v]", min, max)
	}
	if mean <= min || mean >= max {
		return 0, fmt.Errorf("workload: mean %v outside (%v,%v)", mean, min, max)
	}
	f := func(a float64) float64 {
		return BoundedPareto{Min: min, Max: max, Alpha: a}.Mean() - mean
	}
	lo, hi := 1e-6, 50.0
	// Mean decreases in alpha: f(lo) > 0 > f(hi) when solvable.
	if f(lo) < 0 {
		return 0, fmt.Errorf("workload: mean %v above achievable maximum", mean)
	}
	if f(hi) > 0 {
		return 0, fmt.Errorf("workload: mean %v below achievable minimum", mean)
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// PoissonArrivals returns event times of a homogeneous Poisson process
// with the given rate over [0, duration).
func PoissonArrivals(rng *rand.Rand, rate, duration float64) []float64 {
	if rate <= 0 || duration <= 0 {
		return nil
	}
	var times []float64
	t := rng.ExpFloat64() / rate
	for t < duration {
		times = append(times, t)
		t += rng.ExpFloat64() / rate
	}
	return times
}

// PoissonArrivalsHourly returns event times of a nonhomogeneous Poisson
// process over [0, duration) whose intensity follows a daily-periodic
// hourly profile (24 relative weights) around the given mean rate: the
// profile is normalized so its average is 1, making the expected event
// count identical to a homogeneous process at the same rate. Sampling is
// by thinning against the peak intensity, which preserves the exact
// Poisson law. An empty profile degenerates to PoissonArrivals.
func PoissonArrivalsHourly(rng *rand.Rand, rate, duration float64, hourly []float64) []float64 {
	if len(hourly) == 0 {
		return PoissonArrivals(rng, rate, duration)
	}
	if len(hourly) != 24 {
		panic(fmt.Sprintf("workload: hourly profile has %d entries, want 24", len(hourly)))
	}
	var sum, peak float64
	for _, w := range hourly {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("workload: invalid hourly weight %v", w))
		}
		sum += w
		if w > peak {
			peak = w
		}
	}
	if sum <= 0 {
		panic("workload: hourly profile all zero")
	}
	mean := sum / 24
	maxRate := rate * peak / mean
	var times []float64
	t := rng.ExpFloat64() / maxRate
	for t < duration {
		hour := int(math.Mod(t, 86400) / 3600)
		if rng.Float64() < hourly[hour]/peak {
			times = append(times, t)
		}
		t += rng.ExpFloat64() / maxRate
	}
	return times
}

// OnOffArrivals returns event times of a Markov-modulated (ON/OFF)
// Poisson process: the source alternates exponentially-distributed ON
// periods (mean meanOn seconds, arrivals at onRate) and silent OFF
// periods (mean meanOff). The long-run mean rate is
// onRate·meanOn/(meanOn+meanOff); the burstiness — long quiet gaps
// punctuated by dense request trains — is what defeats fixed idleness
// thresholds tuned for smooth traffic.
func OnOffArrivals(rng *rand.Rand, onRate, meanOn, meanOff, duration float64) []float64 {
	if onRate <= 0 || meanOn <= 0 || meanOff < 0 || duration <= 0 {
		return nil
	}
	var times []float64
	t := 0.0
	for t < duration {
		onEnd := t + rng.ExpFloat64()*meanOn
		if onEnd > duration {
			onEnd = duration
		}
		at := t + rng.ExpFloat64()/onRate
		for at < onEnd {
			times = append(times, at)
			at += rng.ExpFloat64() / onRate
		}
		t = onEnd
		if meanOff > 0 {
			t += rng.ExpFloat64() * meanOff
		}
	}
	return times
}

// UniformOrderedTimes returns exactly n sorted times uniform on
// [0, duration) — the conditional distribution of a Poisson process
// given its event count, used when a trace must reproduce an exact
// request count.
func UniformOrderedTimes(rng *rand.Rand, n int, duration float64) []float64 {
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * duration
	}
	sort.Float64s(times)
	return times
}
