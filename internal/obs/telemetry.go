package obs

import "io"

// Per-window telemetry as a record log: the header is a
// TelemetryHeader identifying the schema, the run, and the histogram
// bucket layouts; every further line is one TelemetryWindow, in window
// order. The record types deliberately mirror storage's Window /
// GroupWindow schema without importing it (this package sits below
// storage), and producers convert at the boundary.

// TelemetrySchema identifies the stream format in the header line.
const TelemetrySchema = "diskpack-telemetry"

// TelemetryVersion is the current schema version. Bump on any
// incompatible record change.
const TelemetryVersion = 1

// TelemetryHeader is the first JSONL line: run identity plus the
// bucket bounds the per-window histograms use.
type TelemetryHeader struct {
	// Schema is always TelemetrySchema.
	Schema string
	// Version is the schema version (TelemetryVersion).
	Version int
	// Spec names the scenario or spec the run executed.
	Spec string
	// Seed is the run seed.
	Seed int64
	// Epoch is the window length in simulated seconds.
	Epoch float64
	// IdleGapBuckets and RespBuckets are the histogram bucket upper
	// bounds (each histogram carries one extra overflow bucket).
	IdleGapBuckets []float64
	RespBuckets    []float64
}

// TelemetryGroup is one disk group's share of a telemetry window
// (mirrors storage.GroupWindow; Group -1 is the farm-wide total).
type TelemetryGroup struct {
	Group     int
	Disks     int
	Arrivals  int64
	Completed int64
	// Response-time stats over the window's completions, seconds.
	RespMean, RespP50, RespP95, RespP99, RespMax float64
	// Energy in joules; spin transitions; standby disk-seconds.
	Energy      float64
	SpinUps     int
	SpinDowns   int
	StandbyTime float64
	// Threshold is the group's spin-down threshold at the boundary
	// (zero when not tunable).
	Threshold float64
	// Histogram counts (bounds in the header, plus overflow).
	IdleGaps []int64
	RespHist []int64
}

// TelemetryWindow is one per-window JSONL record (mirrors
// storage.Window).
type TelemetryWindow struct {
	Index      int
	Start, End float64
	Final      bool
	Total      TelemetryGroup
	Groups     []TelemetryGroup
	// Cache, migration, and reliability activity during the window.
	CacheHits       int64
	CacheMisses     int64
	MigrationEnergy float64
	MigratedFiles   int64
	MigratedBytes   int64
	Failures        int
	DataLossEvents  int
	Rebuilds        int
	RebuildTime     float64
}

// TelemetryWriter is the record log a run's telemetry goes to. It is
// safe for concurrent use and on a nil receiver (records nothing), and
// Close is idempotent — the CLI closes it both on the normal path and
// from the SIGINT path.
type TelemetryWriter RecordWriter

// NewTelemetryWriter wraps w; if w is also an io.Closer, Close closes
// it.
func NewTelemetryWriter(w io.Writer) *TelemetryWriter {
	return (*TelemetryWriter)(NewRecordWriter(w))
}

// WriteHeader writes the schema header line, filling Schema and
// Version. No-op on nil.
func (t *TelemetryWriter) WriteHeader(h TelemetryHeader) error {
	if t == nil {
		return nil
	}
	h.Schema = TelemetrySchema
	h.Version = TelemetryVersion
	return (*RecordWriter)(t).Write(&h)
}

// WriteWindow writes one window record line. No-op on nil (by-pointer
// so the disabled path does not copy — or heap-escape — the record).
func (t *TelemetryWriter) WriteWindow(w *TelemetryWindow) error {
	if t == nil || w == nil {
		return nil
	}
	return (*RecordWriter)(t).Write(w)
}

// Close closes the underlying writer if it is closable. Safe on nil;
// calling twice returns nil the second time.
func (t *TelemetryWriter) Close() error { return (*RecordWriter)(t).Close() }

// ReadTelemetry parses a telemetry record log, enforcing the schema
// name and version in the header line.
func ReadTelemetry(r io.Reader) (*TelemetryHeader, []TelemetryWindow, error) {
	return readLog[TelemetryHeader, TelemetryWindow](r, "telemetry", TelemetrySchema, TelemetryVersion)
}
