package workload

import (
	"cmp"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"diskpack/internal/trace"
)

// traceHash is an FNV-64a digest of every field of a trace: the
// fingerprint the generators must keep across refactors.
func traceHash(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(tr.Duration))
	for _, f := range tr.Files {
		put(uint64(f.ID))
		put(uint64(f.Size))
		put(math.Float64bits(f.Rate))
	}
	for _, r := range tr.Requests {
		put(math.Float64bits(r.Time))
		put(uint64(r.FileID))
		if r.Write {
			put(1)
		} else {
			put(0)
		}
	}
	return h.Sum64()
}

// TestTraceHashesUnchanged pins the generated traces for fixed seeds,
// as produced by the comparison-sort generators these replaced.
func TestTraceHashesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*trace.Trace, error)
		want  uint64
	}{
		{"nersc/1", DefaultNERSC(1).Build, 0x413c4004958e2b5f},
		{"nersc/2", DefaultNERSC(2).Build, 0xf98548e32b3357a0},
		{"nersc/7919", DefaultNERSC(7919).Build, 0xf21a56aeae5645bf},
		{"synthetic/1", DefaultSynthetic(6, 1).Build, 0xc90039db4a672ece},
		{"synthetic/7919", DefaultSynthetic(6, 7919).Build, 0xa9eab19450f60bd7},
	} {
		tr, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		if got := traceHash(tr); got != tc.want {
			t.Errorf("%s: trace hash %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

func TestSortBySizeMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 5000, 40000} {
		files := make([]trace.FileInfo, n)
		for i := range files {
			// A few dozen distinct sizes: most IDs tie with many others.
			files[i] = trace.FileInfo{ID: i, Size: 1 + rng.Int63n(40)<<20}
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		got := slices.Clone(want)
		slices.SortFunc(want, func(a, b int) int {
			return cmp.Or(cmp.Compare(files[a].Size, files[b].Size), cmp.Compare(a, b))
		})
		sortBySize(got, files)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: sortBySize differs from the (Size, ID) comparator sort", n)
		}
	}
}

func TestSortEventsIsStableByTime(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{10, 3000, 60000} {
		events := make([]event, n)
		for i := range events {
			// Coarse times force ties; batch records generation order.
			events[i] = event{t: float64(rng.Intn(n/4+1)) * 3.5, batch: i}
		}
		want := slices.Clone(events)
		slices.SortStableFunc(want, func(a, b event) int { return cmp.Compare(a.t, b.t) })
		sortEvents(events)
		if !slices.Equal(events, want) {
			t.Fatalf("n=%d: event order differs from SortStableFunc on t", n)
		}
	}
}

func TestParetoSamplerMatchesSample(t *testing.T) {
	alpha, err := AlphaForMean(1<<20, 100<<30, 544<<20)
	if err != nil {
		t.Fatal(err)
	}
	b := BoundedPareto{Min: 1 << 20, Max: 100 << 30, Alpha: alpha}
	p := b.sampler()
	r1, r2 := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		if x, y := b.Sample(r1), p.draw(r2); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("draw %d: sampler %v, Sample %v", i, y, x)
		}
	}
}

func BenchmarkNERSCBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DefaultNERSC(int64(i)).Build(); err != nil {
			b.Fatal(err)
		}
	}
}
