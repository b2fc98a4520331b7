package obs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
)

func TestReadTelemetryTornTail(t *testing.T) {
	h, ws := sampleTelemetry()
	var buf bytes.Buffer
	tw := NewTelemetryWriter(&buf)
	if err := tw.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	if err := tw.WriteWindow(&ws[0]); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	// A SIGKILL mid-write leaves an unterminated fragment.
	torn := full + `{"Index":1,"Start":1800,"En`
	_, got, err := ReadTelemetry(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d windows, want 1", len(got))
	}
	// A complete but malformed line is corruption, not a torn tail.
	if _, _, err := ReadTelemetry(strings.NewReader(full + "not json\n")); err == nil {
		t.Fatal("malformed complete line should error")
	}
}

// errRanAway marks a reader that consumed far past the line cap.
var errRanAway = errors.New("read far past the line cap")

// endlessLine serves a header line, then one line that never ends. It
// fails with errRanAway once limit bytes of the endless line are read,
// so a reader that slurps its whole input fails the test instead of
// exhausting memory.
type endlessLine struct {
	head        io.Reader
	read, limit int
}

func (e *endlessLine) Read(p []byte) (int, error) {
	if n, _ := e.head.Read(p); n > 0 {
		return n, nil
	}
	if e.read >= e.limit {
		return 0, errRanAway
	}
	n := min(len(p), e.limit-e.read)
	for i := range p[:n] {
		p[i] = 'x'
	}
	e.read += n
	return n, nil
}

// TestReadOverCapLine: an over-cap line is an error found within a
// bounded read of it, for both schema-versioned decoders.
func TestReadOverCapLine(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(10)) // collect each 64 MiB line promptly
	var tel, spans bytes.Buffer
	if err := NewTelemetryWriter(&tel).WriteHeader(TelemetryHeader{Spec: "cap"}); err != nil {
		t.Fatal(err)
	}
	startedRecorder(t, &spans)
	for name, read := range map[string]func(io.Reader) error{
		"telemetry": func(r io.Reader) error { _, _, err := ReadTelemetry(r); return err },
		"spans":     func(r io.Reader) error { _, err := ReadSpans(r); return err },
	} {
		head := map[string][]byte{"telemetry": tel.Bytes(), "spans": spans.Bytes()}[name]
		in := &endlessLine{head: bytes.NewReader(head), limit: maxRecordBytes + 16<<20}
		err := read(in)
		if err == nil || errors.Is(err, errRanAway) || !strings.Contains(err.Error(), "line cap") {
			t.Errorf("%s: over-cap line returned %v, want a line-cap error", name, err)
		}
		if in.read > maxRecordBytes+1<<20 {
			t.Errorf("%s: read %d bytes of an over-cap line, want at most the cap plus buffering", name, in.read)
		}
	}
}

// TestRecordWriterCap: a record exactly at the line cap is written and
// reads back; one byte more is refused, writes nothing, and latches.
func TestRecordWriterCap(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	path := filepath.Join(t.TempDir(), "cap.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	rw := NewRecordWriter(f)
	if err := rw.Write("header"); err != nil {
		t.Fatal(err)
	}
	overCap := strings.Repeat("x", maxRecordBytes-1)
	if err := rw.Write(overCap[1:]); err != nil { // plus two quotes: exactly the cap
		t.Fatalf("at-cap record refused: %v", err)
	}
	if err := rw.Write(overCap); err == nil || !strings.Contains(err.Error(), "line cap") {
		t.Fatalf("over-cap record returned %v, want a line-cap error", err)
	}
	if err := rw.Write("after"); err == nil {
		t.Fatal("write after a refused record succeeded")
	}
	if err := rw.Close(); err == nil {
		t.Fatal("Close did not report the latched error")
	}
	if err := rw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lens []int
	end, err := ReadRecords(f, func([]byte) error { return nil }, func(line []byte) error {
		lens = append(lens, len(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lens, []int{maxRecordBytes}) || end != int64(len(`"header"`)+1+maxRecordBytes+1) {
		t.Fatalf("read back record lengths %v ending at %d", lens, end)
	}
}

type failWriter struct{ writes int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// TestRecordWriterLatchesWriteError: after the sink fails, no further
// record reaches it and Close reports the first error.
func TestRecordWriterLatchesWriteError(t *testing.T) {
	sink := &failWriter{}
	rw := NewRecordWriter(sink)
	for i := 0; i < 3; i++ {
		if err := rw.Write(i); err == nil || err.Error() != "disk full" {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if sink.writes != 1 {
		t.Errorf("sink saw %d writes after failing, want 1", sink.writes)
	}
	if err := rw.Close(); err == nil || err.Error() != "disk full" {
		t.Errorf("Close = %v, want the latched error", err)
	}
	var nilRW *RecordWriter
	if err := nilRW.Write(1); err != nil {
		t.Fatal(err)
	}
	if err := nilRW.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadRecordsOffsets: blank lines are skipped, the torn tail is
// excluded from the resume offset, and a header-less input reports 0.
func TestReadRecordsOffsets(t *testing.T) {
	var recs []string
	in := "H\n\nA\n\nB\ntorn"
	end, err := ReadRecords(strings.NewReader(in), func(line []byte) error {
		if string(line) != "H" {
			t.Errorf("header %q", line)
		}
		return nil
	}, func(line []byte) error {
		recs = append(recs, string(line))
		return nil
	})
	if err != nil || end != int64(len(in)-len("torn")) || !reflect.DeepEqual(recs, []string{"A", "B"}) {
		t.Errorf("got records %q, end %d, err %v", recs, end, err)
	}
	called := false
	end, err = ReadRecords(strings.NewReader("torn header"), func([]byte) error { called = true; return nil }, nil)
	if end != 0 || err != nil || called {
		t.Errorf("header-less input: end %d, err %v, header called %v", end, err, called)
	}
}

// FuzzReadTelemetry: any input is an error or a telemetry log that the
// writer re-encodes to a stable fixed point; never a panic.
func FuzzReadTelemetry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ws, err := ReadTelemetry(bytes.NewReader(data))
		if err != nil {
			return
		}
		if h.Schema != TelemetrySchema || h.Version != TelemetryVersion {
			t.Fatalf("accepted header %+v", h)
		}
		encode := func(h *TelemetryHeader, ws []TelemetryWindow) []byte {
			var buf bytes.Buffer
			tw := NewTelemetryWriter(&buf)
			if err := tw.WriteHeader(*h); err != nil {
				t.Fatal(err)
			}
			for i := range ws {
				if err := tw.WriteWindow(&ws[i]); err != nil {
					t.Fatal(err)
				}
			}
			return buf.Bytes()
		}
		once := encode(h, ws)
		h2, ws2, err := ReadTelemetry(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded log unreadable: %v\n%s", err, once)
		}
		if twice := encode(h2, ws2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", once, twice)
		}
	})
}

// FuzzReadSpans: any input is an error or a span log that re-encodes
// to a stable fixed point; never a panic.
func FuzzReadSpans(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadSpans(bytes.NewReader(data))
		if err != nil {
			return
		}
		if log.Header.Schema != SpanSchema || log.Header.Version != SpanVersion {
			t.Fatalf("accepted header %+v", log.Header)
		}
		encode := func(log *SpanLog) []byte {
			var buf bytes.Buffer
			rw := NewRecordWriter(&buf)
			if err := rw.Write(&log.Header); err != nil {
				t.Fatal(err)
			}
			for i := range log.Spans {
				if err := rw.Write(&log.Spans[i]); err != nil {
					t.Fatal(err)
				}
			}
			return buf.Bytes()
		}
		once := encode(log)
		log2, err := ReadSpans(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded log unreadable: %v\n%s", err, once)
		}
		if twice := encode(log2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", once, twice)
		}
	})
}
