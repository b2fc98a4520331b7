package farm

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diskpack/internal/workload"
)

// TestPointJournalLargestTrace: a trace sweep's journal header embeds
// the whole trace, so it is the longest record line a journal writes.
// The largest trace the tests build (the full NERSC population) must
// journal and recover like any other.
func TestPointJournalLargestTrace(t *testing.T) {
	tr, err := workload.DefaultNERSC(1).Build()
	if err != nil {
		t.Fatal(err)
	}
	sweep := Sweep{
		Name: "nersc-trace",
		Base: Spec{Name: "nersc-trace", Workload: TraceWorkload(tr), Alloc: Packed(0.8)},
		Axes: []Axis{{Kind: AxisSpinThreshold, Values: []float64{30, 1800}}},
	}
	path := filepath.Join(t.TempDir(), "trace.journal")
	j, _, err := OpenPointJournal(path, sweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := goldenPoints()
	for _, pr := range pts {
		if err := j.Append(pr); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if header := bytes.IndexByte(data, '\n'); header < 8<<20 {
		t.Fatalf("header line is %d bytes; the NERSC trace should make it over 8 MiB", header)
	}
	j, recovered, err := OpenPointJournal(path, sweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !reflect.DeepEqual(recovered, pts) {
		t.Errorf("recovered %+v, want %+v", recovered, pts)
	}
}

// FuzzOpenPointJournal: any file content is refused with an error or
// recovered into distinct points that a second open recovers again
// unchanged; never a panic.
func FuzzOpenPointJournal(f *testing.F) {
	sweep := fixtureSweep()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "points.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, pts, err := OpenPointJournal(path, sweep, 9)
		if err != nil {
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, pr := range pts {
			if seen[pr.Index] {
				t.Fatalf("point %d recovered twice", pr.Index)
			}
			seen[pr.Index] = true
		}
		j, again, err := OpenPointJournal(path, sweep, 9)
		if err != nil {
			t.Fatalf("reopening a recovered journal: %v", err)
		}
		j.Close()
		if !reflect.DeepEqual(again, pts) {
			t.Fatalf("reopen recovered %+v, first open %+v", again, pts)
		}
	})
}
