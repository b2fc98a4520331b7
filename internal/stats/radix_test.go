package stats

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// matchesSort reports how got differs from slices.Sort of the same
// values: every position must hold the same bits, except that any two
// NaNs match and −0 matches +0. It also checks that got is in
// Float64Key order; with zeroOrder false, a +0 may precede a −0, as
// comparison sorts allow.
func matchesSort(got, in []float64, zeroOrder bool) error {
	want := slices.Clone(in)
	slices.Sort(want)
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		switch {
		case math.IsNaN(g) && math.IsNaN(w):
		case g == 0 && w == 0:
		case math.Float64bits(g) != math.Float64bits(w):
			return fmt.Errorf("index %d: got %v (%#x), want %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if i > 0 && Float64Key(got[i-1]) > Float64Key(g) && (zeroOrder || g != 0) {
			return fmt.Errorf("index %d: %v after %v breaks the key order", i, g, got[i-1])
		}
	}
	return nil
}

// specials are the values whose bit patterns a float radix key can get
// wrong.
var specials = []float64{
	math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - 0x1p-1074, -(0x1p-1022 - 0x1p-1074), // largest subnormals
	0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5, -0.5, 1e300, -1e-300,
}

func randomFloats(rng *rand.Rand, n int, mix string) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch mix {
		case "special":
			if rng.Intn(4) == 0 {
				xs[i] = specials[rng.Intn(len(specials))]
				continue
			}
			xs[i] = math.Float64frombits(rng.Uint64())
		case "dups":
			xs[i] = float64(rng.Intn(7)) - 3 // heavy ties, both signs
		case "responses":
			xs[i] = rng.ExpFloat64() * 12
		default:
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return xs
}

func TestSortFloat64sMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 2, 17, radixCutoff - 1, radixCutoff, radixCutoff + 1, 5000, 70000}
	for _, mix := range []string{"special", "dups", "responses", "wide"} {
		for _, n := range sizes {
			in := randomFloats(rng, n, mix)
			xs := slices.Clone(in)
			SortFloat64s(xs, make([]float64, n))
			if err := matchesSort(xs, in, n >= radixCutoff); err != nil {
				t.Fatalf("%s n=%d: %v", mix, n, err)
			}
			// The kernel itself, at every size (the entry point hands
			// short slices to slices.Sort).
			if n > 0 {
				ys := slices.Clone(in)
				radixSort(ys, make([]float64, n), Float64Key)
				if err := matchesSort(ys, in, true); err != nil {
					t.Fatalf("kernel %s n=%d: %v", mix, n, err)
				}
			}
		}
	}
}

func TestSortFloat64sShortScratchFallsBack(t *testing.T) {
	in := randomFloats(rand.New(rand.NewSource(2)), 4000, "responses")
	xs := slices.Clone(in)
	SortFloat64s(xs, make([]float64, 10))
	if err := matchesSort(xs, in, false); err != nil {
		t.Fatal(err)
	}
}

func TestSortFloat64sAllocatesNothing(t *testing.T) {
	in := randomFloats(rand.New(rand.NewSource(3)), 5000, "wide")
	xs, scratch := make([]float64, len(in)), make([]float64, len(in))
	if a := testing.AllocsPerRun(5, func() {
		copy(xs, in)
		SortFloat64s(xs, scratch)
	}); a != 0 {
		t.Fatalf("SortFloat64s allocates %v per call", a)
	}
}

func TestFloat64KeyOrder(t *testing.T) {
	ordered := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	for _, nan := range []float64{math.NaN(), -math.NaN()} {
		if Float64Key(nan) >= Float64Key(ordered[0]) {
			t.Fatalf("NaN %#x does not sort first", math.Float64bits(nan))
		}
	}
	for i := 1; i < len(ordered); i++ {
		if Float64Key(ordered[i-1]) >= Float64Key(ordered[i]) {
			t.Fatalf("key(%v) >= key(%v)", ordered[i-1], ordered[i])
		}
	}
}

func TestSortStableByKeyIsStable(t *testing.T) {
	type item struct {
		key uint64
		seq int
	}
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{5, radixCutoff - 1, radixCutoff, 20000} {
		for _, spread := range []uint64{3, 1 << 20, math.MaxUint64} {
			in := make([]item, n)
			for i := range in {
				in[i] = item{key: rng.Uint64() % spread, seq: i}
				if spread == math.MaxUint64 {
					in[i].key = rng.Uint64()
				}
			}
			want := slices.Clone(in)
			slices.SortStableFunc(want, func(a, b item) int { return cmp.Compare(a.key, b.key) })
			got := slices.Clone(in)
			SortStableByKey(got, make([]item, n), func(it item) uint64 { return it.key })
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d spread=%d: radix order differs from SortStableFunc", n, spread)
			}
		}
	}
}

func TestMergeSortedEqualsSortOfUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{0, 1, 2, 3, 5, 16, 17, 40} {
		for _, mix := range []string{"special", "dups", "responses"} {
			runs := make([][]float64, k)
			var union []float64
			for i := range runs {
				n := rng.Intn(300)
				if i%3 == 1 {
					n = 0 // empty runs anywhere in the list
				}
				runs[i] = randomFloats(rng, n, mix)
				slices.Sort(runs[i])
				union = append(union, runs[i]...)
			}
			prefix := []float64{42}
			got := MergeSorted(slices.Clone(prefix), runs...)
			if got[0] != 42 {
				t.Fatalf("k=%d: MergeSorted clobbered dst", k)
			}
			if err := matchesSort(got[1:], union, false); err != nil {
				t.Fatalf("k=%d %s: %v", k, mix, err)
			}
		}
	}
}

func TestSampleSortedValues(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var s Sample
	for i := 0; i < 3000; i++ {
		s.Add(rng.ExpFloat64())
	}
	in := s.AppendValues(nil)
	got := s.SortedValues(make([]float64, s.Count()))
	if err := matchesSort(got, in, true); err != nil {
		t.Fatal(err)
	}
	want := SortedQuantile(got, 0.95)
	if q := s.Quantile(0.95); q != want {
		t.Fatalf("Quantile after SortedValues = %v, want %v", q, want)
	}
	s.Add(-1)
	if v := s.SortedValues(nil); v[0] != -1 {
		t.Fatalf("SortedValues after Add did not resort: first = %v", v[0])
	}
}

// FuzzSortFloat64s feeds arbitrary bit patterns, cycled out to a
// fuzzed length so the radix path runs, through the kernel, the entry
// point and MergeSorted, and checks each against slices.Sort.
func FuzzSortFloat64s(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint8(1))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN())), uint16(radixCutoff), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, k uint8) {
		if len(data) < 8 {
			data = append(data, make([]byte, 8-len(data))...)
		}
		words := len(data) / 8
		in := make([]float64, int(n)%8192)
		for i := range in {
			w := binary.LittleEndian.Uint64(data[8*(i%words):])
			// Vary the low bits across cycles so long inputs are not
			// all ties, keeping the fuzzed sign and exponent.
			in[i] = math.Float64frombits(w ^ uint64(i/words)&0xff)
		}
		xs := slices.Clone(in)
		SortFloat64s(xs, make([]float64, len(xs)))
		if err := matchesSort(xs, in, len(xs) >= radixCutoff); err != nil {
			t.Fatal(err)
		}
		if len(in) > 0 {
			ys := slices.Clone(in)
			radixSort(ys, make([]float64, len(ys)), Float64Key)
			if err := matchesSort(ys, in, true); err != nil {
				t.Fatal("kernel:", err)
			}
		}
		runs := make([][]float64, int(k)%20+1)
		for i, x := range in {
			runs[i%len(runs)] = append(runs[i%len(runs)], x)
		}
		for _, r := range runs {
			SortFloat64s(r, make([]float64, len(r)))
		}
		if err := matchesSort(MergeSorted(nil, runs...), in, false); err != nil {
			t.Fatal("merge:", err)
		}
	})
}

// BenchmarkSortFloat64s compares the radix kernel with slices.Sort at
// the storage fold's sizes: a controlled-diurnal window, the NERSC
// trace's responses, and a controlled-diurnal run's responses.
func BenchmarkSortFloat64s(b *testing.B) {
	for _, n := range []int{3500, 115000, 660000} {
		in := randomFloats(rand.New(rand.NewSource(7)), n, "responses")
		xs, scratch := make([]float64, n), make([]float64, n)
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(xs, in)
				SortFloat64s(xs, scratch)
			}
		})
		b.Run(fmt.Sprintf("slices/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(xs, in)
				slices.Sort(xs)
			}
		})
	}
}
