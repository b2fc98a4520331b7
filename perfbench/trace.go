package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"diskpack/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Spans of one op share Op;
// Parent is the enclosing span (-1 for a root). Weight is the share of
// one thread of execution the span stands for: 1 on the benchmark's own
// thread, 1/n on each of n parallel worker tracks, so that weighted
// self times of one op add up to the op's wall time.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Track  string  `json:"track,omitempty"`
	Point  int     `json:"point,omitempty"` // sweep point of a worker span
	Weight float64 `json:"weight"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so op code can call it unconditionally.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return x.Sub(t.t0).Seconds() }

// begin opens a span on the benchmark's thread and returns its id.
func (t *tracer) begin(parent int, name, layer string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Op: t.op, Name: name, Layer: layer,
		Weight: 1, Start: t.at(time.Now()),
	})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.at(time.Now())
}

// workerLayer maps a coordinator worker's span phase to the layer the
// phase spends its time in.
var workerLayer = map[string]string{
	"compile": "sweep", // farm.Compile of the served grid
	"lease":   "coord", // waiting for a lease grant
	"point":   "sweep", // grid bookkeeping around one point
	"run":     "farm",  // CompiledSweep.RunPoint → farm.Run
	"submit":  "coord", // streaming the result back
}

// addWorkerLog grafts one coordinator worker's span log under parent,
// converting its clock to the tracer's. Each worker is one of n
// parallel tracks.
func (t *tracer) addWorkerLog(parent int, raw []byte, n int) error {
	if t == nil {
		return nil
	}
	log, err := obs.ReadSpans(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	origin := t.at(time.Unix(0, log.Header.StartUnixNano))
	// A child is written when it ends, before its parent: number every
	// kept span first, then link parents.
	first := len(t.spans)
	ids := map[string]int{}
	var parents []string
	for _, s := range log.Spans {
		layer, ok := workerLayer[s.Phase]
		if !ok || s.Start == s.End { // instant events carry no time
			continue
		}
		ids[s.ID] = len(t.spans)
		parents = append(parents, s.Parent)
		t.spans = append(t.spans, span{
			ID: len(t.spans), Parent: parent, Op: t.op, Name: "coord." + s.Phase, Layer: layer,
			Track: log.Header.Track, Point: s.Point, Weight: 1 / float64(n),
			Start: origin + s.Start, End: origin + s.End,
		})
	}
	for i, p := range parents {
		if id, ok := ids[p]; ok {
			t.spans[first+i].Parent = id
		}
	}
	return nil
}

// selfTimes returns each layer's weighted self time summed over the
// spans of every op, plus the op count. A span's self time is its
// duration minus what its children cover; weighted self times of one
// op add up to the op span's duration.
func selfTimes(spans []span) (map[string]float64, int) {
	covered := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			covered[s.Parent] += s.dur() * s.Weight / p.Weight
		}
	}
	self := map[string]float64{}
	ops := map[int]bool{}
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		if s.Parent < 0 {
			ops[s.Op] = true
		}
		v := s.dur() - covered[i]
		if v < 0 {
			v = 0
		}
		self[s.Layer] += v * s.Weight
	}
	return self, len(ops)
}

// writeSpans saves the span list as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profileBuckets are the packages CPU samples fold into; anything else
// under diskpack/internal lands in "other".
var profileBuckets = []string{
	"workload", "trace", "core", "cache", "storage", "disk", "sim", "stats",
	"mheap", "policy", "farm", "coord", "control", "obs", "go", "std", "bench", "other",
}

// bucketOf maps a fully qualified Go function name to its bucket.
func bucketOf(fn string) string {
	// The package path ends at the first "." after its last "/"; type
	// parameters and receivers may hold other paths, so cut them first.
	pkg := fn
	if i := strings.IndexAny(pkg, "[("); i >= 0 {
		pkg = pkg[:i]
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "diskpack/internal/"):
		name := strings.TrimPrefix(pkg, "diskpack/internal/")
		for _, b := range profileBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "diskpack/"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "go"
	default:
		return "std"
	}
}

// foldProfile reads a gzipped pprof CPU profile and returns the share
// of flat CPU time (the leaf frame of each sample) per bucket.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location → leaf function
		fnName   = map[uint64]int64{}  // function → string index
		strtab   []string
		valueIdx = -1
		nTypes   int
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: the last one is cpu/nanoseconds
			nTypes++
			valueIdx = nTypes - 1
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					locs = append(locs, pbRepeated(v, b)...)
				case 2:
					for _, x := range pbRepeated(v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && valueIdx >= 0 && valueIdx < len(vals) {
				samples = append(samples, sample{locs[0], vals[valueIdx]})
			}
		case 4: // location
			var id, fn uint64
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if first {
						first = false
						return pbFields(b, func(f int, v uint64, _ []byte) error {
							if f == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := fnName[locFn[s.loc]]; i >= 0 && int(i) < len(strtab) {
			name = strtab[i]
		}
		out[bucketOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := pbVarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("short protobuf fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// pbRepeated decodes one occurrence of a repeated varint field: a
// single value, or a packed run when b is set.
func pbRepeated(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
