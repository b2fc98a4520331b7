package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// maxRecordBytes caps one record line, newline excluded. A point
// journal line carries one point the coordinator accepted in a request
// body of up to 64 MiB (coord's maxBodyBytes), so the cap is no
// smaller than that body limit.
const maxRecordBytes = 64 << 20

// errRecordLogClosed is returned by writes after Close.
var errRecordLogClosed = errors.New("obs: record log closed")

// RecordWriter writes a record log: each record is its JSON encoding
// plus '\n', emitted with a single Write call. It is safe for
// concurrent use and safe on a nil receiver (records nothing). The
// first failed write — an unencodable or over-cap record, or an error
// from the underlying writer — is latched: every later write returns
// it and Close reports it, so a log never continues past a record it
// may have torn.
type RecordWriter struct {
	mu     sync.Mutex
	w      io.Writer
	c      io.Closer
	buf    bytes.Buffer
	enc    *json.Encoder
	err    error
	closed bool
}

// NewRecordWriter wraps w; if w is also an io.Closer, Close closes it.
func NewRecordWriter(w io.Writer) *RecordWriter {
	rw := &RecordWriter{w: w}
	rw.enc = json.NewEncoder(&rw.buf)
	if c, ok := w.(io.Closer); ok {
		rw.c = c
	}
	return rw
}

// Write appends v as one record line. No-op on nil.
func (rw *RecordWriter) Write(v any) error {
	if rw == nil {
		return nil
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.err != nil {
		return rw.err
	}
	if rw.closed {
		return errRecordLogClosed
	}
	rw.buf.Reset()
	// Encode writes exactly json.Marshal's bytes plus the newline.
	if err := rw.enc.Encode(v); err != nil {
		rw.err = err
	} else if n := rw.buf.Len() - 1; n > maxRecordBytes {
		rw.err = fmt.Errorf("obs: %d-byte record exceeds the %d-byte line cap", n, maxRecordBytes)
	} else {
		_, rw.err = rw.w.Write(rw.buf.Bytes())
	}
	if rw.buf.Cap() > 1<<20 {
		rw.buf = bytes.Buffer{} // do not pin one huge record's buffer
	}
	return rw.err
}

// Close closes the underlying writer if it is closable and returns the
// latched write error, if any, else the close error. Safe on nil;
// calling twice returns nil the second time.
func (rw *RecordWriter) Close() error {
	if rw == nil {
		return nil
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if rw.closed {
		return nil
	}
	rw.closed = true
	err := rw.err
	if rw.c != nil {
		if cerr := rw.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadRecords streams a record log from r, one line at a time: header
// receives line 1 and record every later non-blank line, each without
// its newline and valid only until the callback returns. Only
// newline-terminated lines count — an unterminated final line is the
// torn record of a killed writer and is dropped — and a line over the
// cap is an error, found without reading past the cap. Callback errors
// are returned unchanged. The offset returned is the byte just past the
// last complete line: where an appender resumes, and 0 when r held no
// complete line (header was never called).
func ReadRecords(r io.Reader, header, record func(line []byte) error) (int64, error) {
	br := bufio.NewReader(r)
	var (
		end  int64
		line []byte // the current line, assembled across buffer refills
	)
	for n := 1; ; n++ {
		line = line[:0]
		frag, err := br.ReadSlice('\n')
		for err == bufio.ErrBufferFull && len(line) <= maxRecordBytes {
			line = append(line, frag...)
			frag, err = br.ReadSlice('\n')
		}
		line = append(line, frag...)
		if len(line) > maxRecordBytes+1 || err == bufio.ErrBufferFull {
			return end, fmt.Errorf("obs: record line %d exceeds the %d-byte line cap", n, maxRecordBytes)
		}
		if err == io.EOF {
			return end, nil
		}
		if err != nil {
			return end, err
		}
		end += int64(len(line))
		text := line[:len(line)-1]
		switch {
		case n == 1:
			err = header(text)
		case len(text) > 0:
			err = record(text)
		}
		if err != nil {
			return end, err
		}
	}
}

// readLog reads a schema-versioned record log: line 1 is a header H
// whose Schema and Version must match, every later line one R.
func readLog[H, R any](r io.Reader, kind, schema string, version int) (*H, []R, error) {
	h := new(H)
	var recs []R
	end, err := ReadRecords(r, func(line []byte) error {
		var id struct {
			Schema  string
			Version int
		}
		if err := json.Unmarshal(line, &id); err != nil {
			return fmt.Errorf("obs: %s header: %w", kind, err)
		}
		if id.Schema != schema {
			return fmt.Errorf("obs: %s schema %q, want %q", kind, id.Schema, schema)
		}
		if id.Version != version {
			return fmt.Errorf("obs: %s version %d, reader understands %d", kind, id.Version, version)
		}
		if err := json.Unmarshal(line, h); err != nil {
			return fmt.Errorf("obs: %s header: %w", kind, err)
		}
		return nil
	}, func(line []byte) error {
		var rec R
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("obs: %s record %d: %w", kind, len(recs), err)
		}
		recs = append(recs, rec)
		return nil
	})
	if err == nil && end == 0 {
		err = fmt.Errorf("obs: %s stream has no complete header line", kind)
	}
	if err != nil {
		return nil, nil, err
	}
	return h, recs, nil
}
