package farm

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestOpenPointJournalOverCapLine feeds the journal through a FIFO: one
// line that never ends, from a feeder that keeps the FIFO open so the
// journal never sees end of file. Only a reader that gives up at the
// line cap returns; one that slurps the whole file blocks once the
// feeder's budget is spent.
func TestOpenPointJournalOverCapLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "points.journal")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	// Opening read-write never blocks on a FIFO.
	feed, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 256 << 20 // well past the 64 MiB line cap
	var fed atomic.Int64
	fedDone := make(chan struct{})
	defer func() {
		feed.Close() // unblocks a feeder stuck on a full pipe
		<-fedDone
	}()
	go func() {
		defer close(fedDone)
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for fed.Load() < budget {
			n, err := feed.Write(chunk)
			fed.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := OpenPointJournal(path, fixtureSweep(), 9)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "line cap") {
			t.Fatalf("over-cap journal line returned %v, want a line-cap error", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("OpenPointJournal still reading after %d bytes of one line", fed.Load())
	}
	if n := fed.Load(); n >= budget {
		t.Errorf("journal read %d bytes of an over-cap line, want about the cap", n)
	}
}
