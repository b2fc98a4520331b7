package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"diskpack/internal/obs"
)

// Crash-tolerant incremental persistence of completed sweep points,
// shared by cmd/disksim's -run-shard partial file and the coordinator's
// journal (internal/coord). The journal is an obs record log whose
// header binds it to its (sweep, seed) and whose records are one
// ShardPointResult per completed point. Every append is also fsynced
// before it returns, so a crash at any moment loses at most the point
// being written. Recovery refuses a journal written for a different
// sweep or seed rather than resuming wrong numbers. Observability spans
// may ride along as {"Span":...} envelope lines (AppendSpan); recovery
// skips them — they are autopsy material, not results, and an old
// reader never confuses one for a point because ShardPointResult has no
// Span field.

// PointJournal is an open journal positioned for appending.
type PointJournal struct {
	path string
	f    *os.File
	log  *obs.RecordWriter
}

// journalHeader is the first line of every journal: the full grid
// declaration, so recovery can prove the journaled points belong to
// the sweep being resumed.
type journalHeader struct {
	Seed  int64
	Sweep Sweep
}

// OpenPointJournal opens (or creates) the journal at path for the given
// sweep and seed, returning the points previously journaled there —
// deduplicated, first write wins — so the caller can skip re-running
// them. A torn final line (a crash mid-append) is discarded and
// overwritten by the next append; a journal whose header names a
// different sweep or seed is refused. Callers validate the recovered
// points against their compiled grid (RunShard and the coordinator both
// do), so a journal from a diverged build still fails loudly.
func OpenPointJournal(path string, sweep Sweep, seed int64) (_ *PointJournal, _ []ShardPointResult, err error) {
	if err := shardableSweep(sweep); err != nil {
		return nil, nil, err
	}
	wantSweep, err := json.Marshal(sweep)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	var points []ShardPointResult
	seen := make(map[int]bool)
	end, err := obs.ReadRecords(f, func(line []byte) error {
		var h journalHeader
		if err := json.Unmarshal(line, &h); err != nil {
			return fmt.Errorf("header: %w", err)
		}
		gotSweep, err := json.Marshal(h.Sweep)
		if err != nil {
			return err
		}
		if h.Seed != seed || !bytes.Equal(gotSweep, wantSweep) {
			return errors.New("written for a different sweep or seed")
		}
		return nil
	}, func(line []byte) error {
		// Span envelopes are observability sidecars; results never
		// carry a Span key, so the probe cannot misfire.
		var env spanEnvelope
		if json.Unmarshal(line, &env) == nil && env.Span != nil {
			return nil
		}
		var pr ShardPointResult
		if err := json.Unmarshal(line, &pr); err != nil {
			return fmt.Errorf("corrupt record: %w", err)
		}
		if !seen[pr.Index] {
			seen[pr.Index] = true
			points = append(points, pr)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("farm: journal %s: %w — delete it to start over", path, err)
	}
	// Drop any torn tail so the next append starts on a line boundary.
	if err := f.Truncate(end); err != nil {
		return nil, nil, err
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		return nil, nil, err
	}
	j := &PointJournal{path: path, f: f, log: obs.NewRecordWriter(f)}
	if end == 0 {
		if err := j.append(journalHeader{Seed: seed, Sweep: sweep}); err != nil {
			return nil, nil, err
		}
		// A fresh journal's directory entry needs its own fsync, or a
		// power loss could take the whole file — every synced append
		// with it — and void the one-point crash window.
		if err := SyncParentDir(path); err != nil {
			return nil, nil, fmt.Errorf("farm: journal %s: syncing directory: %w", path, err)
		}
	}
	return j, points, nil
}

// SyncParentDir fsyncs the directory holding path, making its entry
// for a just-created or just-renamed file durable. Shared by the
// journal and by cmd/disksim's result-file rename, so the
// rename-durability rule lives in one place.
func SyncParentDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append journals one completed point and syncs it to disk before
// returning, so an acknowledged point survives any subsequent crash.
func (j *PointJournal) Append(pr ShardPointResult) error { return j.append(pr) }

// spanEnvelope wraps a span so a journal line carrying one is
// unmistakable: point-result lines never have a Span key.
type spanEnvelope struct {
	Span *obs.Span
}

// AppendSpan journals one observability span as an envelope line,
// synced like any other append. Envelopes are skipped on recovery;
// they exist so a coordinator journal doubles as an autopsy of which
// worker ran which point when, next to the results themselves.
func (j *PointJournal) AppendSpan(sp obs.Span) error {
	return j.append(spanEnvelope{Span: &sp})
}

// append writes one record and fsyncs the file.
func (j *PointJournal) append(v any) error {
	err := j.log.Write(v)
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		return fmt.Errorf("farm: journal %s: %w", j.path, err)
	}
	return nil
}

// Close closes the journal file. The file stays on disk — callers
// delete it (Remove) once its points are persisted elsewhere.
func (j *PointJournal) Close() error { return j.log.Close() }

// Remove deletes the journal file; call it after the final result has
// been durably written elsewhere.
func (j *PointJournal) Remove() error { return os.Remove(j.path) }
