package stats

import (
	"cmp"
	"math"
	"slices"
)

// The radix kernel is an LSD (least-significant digit first) counting
// sort over 64-bit keys in 11-bit digits: six scatter passes at most,
// each stable, so the whole sort is stable. One counting pass fills
// every digit's histogram up front, and a pass in which every key has
// the same digit is skipped: keys that span only a few digits (file
// sizes, times within one binade range) pay for those digits alone.
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixMask    = radixBuckets - 1
	radixPasses  = (64 + radixBits - 1) / radixBits
	// radixCutoff is the length below which the entry points hand the
	// slice to a comparison sort: the counting pass and the histogram
	// prefix sums cost more than pdqsort on a few hundred elements.
	radixCutoff = 1024
)

// Float64Key maps x to a uint64 whose unsigned order is the numeric
// order of float64, refined into a total order: every NaN first (as
// slices.Sort places them), then −Inf … −0, +0 … +Inf. −0 sorts before
// +0. All NaNs share key 0, so a stable sort keeps them in input order.
func Float64Key(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	// Negative: flip every bit, so larger magnitudes sort lower.
	// Non-negative: set the sign bit, lifting them above all negatives.
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// SortFloat64s sorts xs ascending with the radix kernel, using scratch
// (len(scratch) >= len(xs)) as its buffer; it allocates nothing. The
// result equals slices.Sort's bit for bit, except that −0 sorts before
// +0 (slices.Sort leaves their relative order unspecified). Below about
// a thousand elements, or when scratch is too short, it calls
// slices.Sort instead.
func SortFloat64s(xs, scratch []float64) {
	if len(xs) < radixCutoff || len(scratch) < len(xs) {
		slices.Sort(xs)
		return
	}
	radixSort(xs, scratch[:len(xs)], Float64Key)
}

// SortStableByKey sorts xs stably by key ascending, in unsigned order,
// with the radix kernel, using scratch (len(scratch) >= len(xs)) as
// its buffer; it allocates nothing. Elements with equal keys keep their
// input order. Below about a thousand elements, or when scratch is too
// short, it calls slices.SortStableFunc on the same keys instead. Use
// Float64Key for float keys; a signed integer key k sorts correctly as
// uint64(k) ^ 1<<63.
func SortStableByKey[T any](xs, scratch []T, key func(T) uint64) {
	if len(xs) < radixCutoff || len(scratch) < len(xs) {
		slices.SortStableFunc(xs, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
		return
	}
	radixSort(xs, scratch[:len(xs)], key)
}

// radixSort is the kernel: a stable LSD radix sort of xs by key, with
// buf (same length) as the ping-pong buffer.
func radixSort[T any](xs, buf []T, key func(T) uint64) {
	n := len(xs)
	if uint64(n) > math.MaxUint32 {
		slices.SortStableFunc(xs, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
		return
	}
	var counts [radixPasses][radixBuckets]uint32
	for _, x := range xs {
		k := key(x)
		for p := range counts {
			counts[p][k>>(p*radixBits)&radixMask]++
		}
	}
	first := key(xs[0])
	src, dst := xs, buf
	for p := range counts {
		shift := p * radixBits
		c := &counts[p]
		if c[first>>shift&radixMask] == uint32(n) {
			continue // every key has this digit: the pass is the identity
		}
		var sum uint32
		for d, v := range c {
			c[d] = sum
			sum += v
		}
		for _, x := range src {
			d := key(x) >> shift & radixMask
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// MergeSorted appends the merge of runs, each sorted ascending, to dst
// and returns the extended slice. The result equals slices.Sort of the
// concatenated runs, up to the relative order of −0 and +0, with NaNs
// first. Empty runs are skipped; two runs merge directly and more go
// through a binary min-heap of run heads, so k runs of n values in all
// cost O(n log k). It allocates only to grow dst, plus the heap itself
// past 16 non-empty runs.
func MergeSorted(dst []float64, runs ...[]float64) []float64 {
	var stack [16][]float64
	live := stack[:0]
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	n := len(dst)
	dst = slices.Grow(dst, total)[:n+total]
	out := dst[n:]
	switch len(live) {
	case 0:
	case 1:
		copy(out, live[0])
	case 2:
		merge2(out, live[0], live[1])
	default:
		mergeHeap(out, live)
	}
	return dst
}

// floatLess is slices.Sort's order: numeric, with NaNs first.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// merge2 writes the merge of sorted a and b into out
// (len(out) == len(a)+len(b)); ties take a first.
func merge2(out, a, b []float64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if floatLess(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// mergeHeap writes the merge of three or more non-empty sorted runs
// into out, keeping the runs in a min-heap on their head values. Runs
// leave the heap as they drain; the last two finish in merge2.
func mergeHeap(out []float64, h [][]float64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	k := 0
	for len(h) > 2 {
		top := h[0]
		out[k] = top[0]
		k++
		if len(top) == 1 {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
		} else {
			h[0] = top[1:]
		}
		siftDown(h, 0)
	}
	merge2(out[k:], h[0], h[1])
}

// siftDown restores the heap property below index i.
func siftDown(h [][]float64, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && floatLess(h[r][0], h[l][0]) {
			m = r
		}
		if !floatLess(h[m][0], h[i][0]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
