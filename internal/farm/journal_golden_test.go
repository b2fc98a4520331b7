package farm

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"diskpack/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenPoints are hand-built point results, so the journal golden
// pins the journal format rather than the simulator's numbers.
func goldenPoints() []ShardPointResult {
	return []ShardPointResult{
		{Index: 0, Label: "threshold=30 farm=8", Metrics: &Metrics{
			Spec: "fixture", Seed: 9, FarmSize: 8, DisksUsed: 5, Energy: 1234.5,
			PowerSavingRatio: 0.25, RespP95: 3.5, Completed: 42,
		}},
		{Index: 1, Label: "threshold=30 farm=12", Alloc: &Allocation{
			Assign: []int{0, 1, 1}, DisksUsed: 2, LowerBound: 2, Rho: 0.5, Bound: 1.5,
		}},
	}
}

// TestPointJournalGolden pins the journal bytes — the schema-less
// {Seed, Sweep} header, point lines and a {"Span":…} envelope — and
// recovers the points from the golden file.
func TestPointJournalGolden(t *testing.T) {
	sweep := fixtureSweep()
	path := filepath.Join(t.TempDir(), "points.journal")
	j, _, err := OpenPointJournal(path, sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	pts := goldenPoints()
	if err := j.Append(pts[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSpan(obs.Span{ID: "0123456789abcdef", Point: 0, Attempt: 1, Phase: "grant",
		Status: obs.SpanOK, Start: 0.5, End: 1.5, Args: map[string]any{"worker": "w1"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(pts[1]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "journal.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal drifted from golden:\n--- got\n%s--- want\n%s", got, want)
	}

	copyPath := filepath.Join(t.TempDir(), "golden.journal")
	if err := os.WriteFile(copyPath, want, 0o644); err != nil {
		t.Fatal(err)
	}
	j, recovered, err := OpenPointJournal(copyPath, sweep, 9)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(recovered) != 2 || recovered[0].Metrics.Energy != 1234.5 || recovered[1].Alloc.Bound != 1.5 {
		t.Errorf("recovered %+v", recovered)
	}
}
