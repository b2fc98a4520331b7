package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// checkGolden compares got with testdata/name byte for byte, rewriting
// the file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// goldenSpanLog records every kind of span record under a fixed clock:
// a root span with Args merged at End, a nested child, a prebuilt
// Record, an instant Event, and a span still open at Close (aborted).
func goldenSpanLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := NewSpanRecorder(&buf)
	now, advance := fakeClock()
	rec.SetNow(now)
	if err := rec.Start(SpanHeader{Track: "w1", Role: "worker", SweepHash: "abcd", Seed: 7, Points: 6}); err != nil {
		t.Fatal(err)
	}
	c := rec.Begin(-1, 1, "compile", nil)
	advance(20 * time.Millisecond)
	c.End(SpanOK, map[string]any{"points": 6})
	ph := rec.Begin(2, 1, "point", map[string]any{"label": "t=30"})
	advance(10 * time.Millisecond)
	rh := rec.BeginChild(ph, "run", nil)
	advance(125 * time.Millisecond)
	rh.End(SpanOK, nil)
	ph.End(SpanOK, map[string]any{"duplicate": false})
	if err := rec.Record(Span{Point: 3, Attempt: 2, Phase: "grant", Status: SpanStolen,
		Start: 0.5, End: 0.75, Args: map[string]any{"worker": "w2"}}); err != nil {
		t.Fatal(err)
	}
	rec.Event(-1, 1, "retry", SpanError, map[string]any{"path": "/v1/submit", "<&>": "escaped"})
	rec.Begin(4, 1, "point", nil)
	advance(time.Second)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpanLogGolden pins the span JSONL bytes and reads them back.
func TestSpanLogGolden(t *testing.T) {
	got := goldenSpanLog(t)
	checkGolden(t, "spans.golden.jsonl", got)
	log, err := ReadSpans(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Spans) != 6 || log.Spans[5].Status != SpanAborted {
		t.Errorf("read back %d spans: %+v", len(log.Spans), log.Spans)
	}
}

// TestChromeTraceGolden pins the state-timeline Chrome trace bytes.
func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace.golden.json", buf.Bytes())

	var empty bytes.Buffer
	var nilRec *TraceRecorder
	if err := nilRec.WriteChromeTrace(&empty); err != nil {
		t.Fatal(err)
	}
	if want := "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n"; empty.String() != want {
		t.Errorf("nil recorder trace %q, want %q", empty.String(), want)
	}
}

// TestSpanTraceGolden pins the merged fleet Chrome trace bytes.
func TestSpanTraceGolden(t *testing.T) {
	co := makeLog("coordinator", "coordinator",
		Span{ID: "g", Point: 0, Attempt: 1, Phase: "grant", Status: SpanOK, Start: 0.5, End: 1.5,
			Args: map[string]any{"worker": "w1"}},
	)
	w1 := makeLog("w1", "worker",
		Span{ID: "p", Point: 0, Attempt: 1, Phase: "point", Status: SpanOK, Start: 0.6, End: 1.4},
		Span{ID: "r", Parent: "p", Point: 0, Attempt: 1, Phase: "run", Status: SpanOK, Start: 0.7, End: 1.3},
		Span{ID: "s", Point: 0, Attempt: 1, Phase: "stolen", Status: SpanStolen, Start: 2, End: 2},
	)
	w1.Header.StartUnixNano = 2e9
	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, []SpanLog{w1, co}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "spantrace.golden.json", buf.Bytes())
}
