package farm

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"diskpack/internal/trace"
)

// inputMemo shares the input stage of open-loop runs — the workload
// trace and its allocation — among the points of one compiled sweep.
// A threshold × load-bound grid draws every point from one trace and
// one packing per load bound; without the memo each point rebuilds
// both.
//
// Keys are fixed at Compile. A point's trace key is its seed plus the
// canonical JSON of its workload (a pre-built trace is keyed by its
// identity: BuildTrace returns it as-is); its allocation key extends
// the trace key with the JSON of Alloc and Groups, the only other
// fields the allocation stage reads. Only keys shared by at least two
// points are memoized, so a seed-axis grid retains nothing. Each shared
// input is built once, by whichever point needs it first, and dropped
// once every point sharing it has run in this process; a point run
// again after that rebuilds its inputs. Shared inputs are read-only:
// the simulate stage copies the assignment and never writes the trace.
type inputMemo struct {
	keys []inputKeys // per point; an empty key builds fresh

	mu      sync.Mutex
	entries map[string]*memoEntry // live shared inputs by key
	ran     []bool                // points that have released their keys

	// Stage builds, shared or fresh (tests read these).
	traceBuilds, allocBuilds atomic.Int64
}

// inputKeys are one point's memo keys ("" when its input is unshared).
type inputKeys struct{ trace, alloc string }

// memoEntry is one input stage output, built at most once.
type memoEntry struct {
	once  sync.Once
	tr    *trace.Trace
	alloc *Allocation
	err   error
	left  int // sharers that have not run yet
}

// newInputMemo keys the points' input stages. Controlled points and
// points whose workload does not marshal get no keys; this keeps a
// controller's live-spec rewrite away from shared inputs.
func newInputMemo(points []Point, seed int64) *inputMemo {
	m := &inputMemo{
		keys:    make([]inputKeys, len(points)),
		entries: make(map[string]*memoEntry),
		ran:     make([]bool, len(points)),
	}
	count := make(map[string]int)
	for i := range points {
		p := &points[i]
		if p.Spec.Control != nil {
			continue
		}
		k := stageKeys(p.Spec, seed+p.SeedOffset)
		m.keys[i] = k
		count[k.trace]++
		count[k.alloc]++
	}
	for i, k := range m.keys {
		if count[k.trace] < 2 {
			k.trace = ""
		}
		if count[k.alloc] < 2 {
			k.alloc = ""
		}
		m.keys[i] = k
		for _, key := range []string{k.trace, k.alloc} {
			if key != "" {
				if m.entries[key] == nil {
					m.entries[key] = &memoEntry{}
				}
				m.entries[key].left++
			}
		}
	}
	return m
}

// stageKeys derives a spec's trace and allocation keys at seed. An
// explicit allocation costs nothing to rebuild and would key on its
// whole map, so it gets no allocation key.
func stageKeys(s Spec, seed int64) inputKeys {
	var k inputKeys
	w := s.Workload
	if w.Kind == WorkloadTrace {
		k.trace = fmt.Sprintf("%d trace %p", seed, w.Trace)
	} else {
		b, err := json.Marshal(w)
		if err != nil {
			return inputKeys{}
		}
		k.trace = strconv.FormatInt(seed, 10) + " " + string(b)
	}
	if s.Alloc.Kind == AllocExplicit {
		return k
	}
	alloc, err := json.Marshal(s.Alloc)
	if err != nil {
		return k
	}
	groups, err := json.Marshal(s.Groups)
	if err != nil {
		return k
	}
	k.alloc = k.trace + "\n" + string(alloc) + "\n" + string(groups)
	return k
}

// entry returns the live shared entry for key, or a fresh unshared one.
func (m *inputMemo) entry(key string) *memoEntry {
	if key != "" {
		m.mu.Lock()
		defer m.mu.Unlock()
		if e := m.entries[key]; e != nil {
			return e
		}
	}
	return &memoEntry{}
}

// trace runs the trace half of point i's input stage.
func (m *inputMemo) trace(i int, s Spec, seed int64) (*trace.Trace, error) {
	e := m.entry(m.keys[i].trace)
	e.once.Do(func() {
		m.traceBuilds.Add(1)
		e.tr, e.err = s.buildTrace(seed)
	})
	return e.tr, e.err
}

// alloc runs the allocation half of point i's input stage over tr,
// returning the allocation stage's error unframed, as Plan does.
func (m *inputMemo) alloc(i int, s Spec, seed int64, tr *trace.Trace) (*Allocation, error) {
	e := m.entry(m.keys[i].alloc)
	e.once.Do(func() {
		m.allocBuilds.Add(1)
		e.alloc, e.err = s.allocate(tr, seed+1)
	})
	return e.alloc, e.err
}

// release records that point i has run, dropping every shared input
// whose sharers have now all run. Releasing a point twice is a no-op.
func (m *inputMemo) release(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ran[i] {
		return
	}
	m.ran[i] = true
	for _, key := range []string{m.keys[i].trace, m.keys[i].alloc} {
		if e := m.entries[key]; e != nil {
			if e.left--; e.left == 0 {
				delete(m.entries, key)
			}
		}
	}
}

// live returns the number of shared inputs the memo still retains.
func (m *inputMemo) live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
