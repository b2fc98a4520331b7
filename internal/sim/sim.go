// Package sim implements a deterministic discrete-event simulation
// kernel. It is the Go substitute for the SimPy framework the paper used
// to evaluate the Pack_Disks file-allocation strategy: an event list
// ordered by simulated time, a virtual clock, and cancellable timers.
//
// Determinism: events scheduled for the same instant fire in scheduling
// order (FIFO tie-breaking via a sequence number), so a simulation run is
// a pure function of its inputs and random seeds.
//
// The kernel is callback-based rather than coroutine-based: model
// entities (disks, dispatchers, caches) are state machines that schedule
// follow-up events. Steady-state scheduling is allocation-free: event
// records are recycled through a per-Env free list, and the ScheduleArg
// and AtArg entry points take a static function plus a pre-boxed
// argument so no closure is created per event. This matters because the
// experiment harness fans thousands of runs, each firing millions of
// events, across a worker pool.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Forever is a time later than any event the simulator will fire.
const Forever Time = math.MaxFloat64

// node is the pooled event record. Nodes are owned by the Env: freed at
// fire or cancel time, recycled by the next Schedule, with gen bumped
// on every recycle so stale Event handles can detect reuse.
type node struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
	env *Env
	gen uint32
	// where/slot locate the node inside calQueue for eager removal.
	where int32
	slot  int32
}

// Event is a handle to a scheduled callback, returned by
// Env.Schedule/At and friends. It is a small value (copyable, zero
// value inert) rather than a pointer: the underlying event record is
// recycled the moment the event fires or is cancelled, and the handle's
// generation stamp is what keeps it safe afterwards — a handle held
// across recycling can never cancel or observe a *different* event that
// now occupies the same record.
type Event struct {
	n        *node
	at       Time
	gen      uint32
	canceled bool
}

// When returns the simulated time the event is (or was) scheduled for.
func (e *Event) When() Time { return e.at }

// Cancel prevents the event from firing and reclaims its queue slot
// immediately. Cancelling an event that has already fired or was
// already cancelled is a no-op — in particular, a stale handle whose
// record has been recycled to a newer event never cancels that newer
// event. Cancel is safe to call from inside event callbacks.
func (e *Event) Cancel() {
	if e.canceled || e.n == nil || e.gen != e.n.gen {
		return
	}
	e.canceled = true
	env := e.n.env
	env.q.remove(e.n)
	env.recycle(e.n)
}

// Canceled reports whether Cancel was called on this handle before the
// event fired.
func (e *Event) Canceled() bool { return e.canceled }

// Fired reports whether the event callback has run.
func (e *Event) Fired() bool {
	if e.canceled || e.n == nil {
		return false
	}
	if e.gen != e.n.gen {
		// The record moved on: this event left the queue, and not via
		// this handle's Cancel — it fired.
		return true
	}
	return false
}

// Env is a simulation environment: a clock plus a pending-event queue.
// The zero value is not usable; call NewEnv.
type Env struct {
	now       Time
	q         calQueue
	seq       uint64
	pos       uint64 // events at now with seq < pos have fired (see Passed)
	stepCount uint64 // fired events, for diagnostics
	free      []*node
	slab      []node // current allocation block, carved into nodes
}

// legacyKernel, when set, makes NewEnv hand out legacy-heap
// environments. See SetLegacyKernel.
var legacyKernel atomic.Bool

// SetLegacyKernel globally switches NewEnv between the calendar-queue
// scheduler (false, the default) and the legacy binary heap (true),
// returning the previous setting. This is a test seam, not a tuning
// knob: the farm-level kernel identity suite uses it to run entire
// scenarios under both schedulers and compare their metrics
// byte-for-byte.
func SetLegacyKernel(on bool) bool { return legacyKernel.Swap(on) }

// NewEnv returns an environment with the clock at zero and no pending
// events, using the calendar-queue scheduler (unless SetLegacyKernel
// has switched the process to the legacy heap).
func NewEnv() *Env {
	if legacyKernel.Load() {
		return NewLegacyHeapEnv()
	}
	return &Env{}
}

// NewLegacyHeapEnv returns an environment whose scheduler degenerates
// to the plain global binary heap the kernel used before the calendar
// queue. Event ordering is identical by construction; this exists so
// property tests can prove that byte-for-byte (see the farm kernel
// identity suite) rather than assume it.
func NewLegacyHeapEnv() *Env {
	env := &Env{}
	env.q.bottomMax = math.Inf(1)
	return env
}

// Now returns the current simulated time.
func (env *Env) Now() Time { return env.now }

// Pending returns the number of live (scheduled, not yet fired or
// cancelled) events. Cancelled events are reclaimed eagerly and never
// counted.
func (env *Env) Pending() int { return env.q.size }

// Steps returns the number of events fired so far.
func (env *Env) Steps() uint64 { return env.stepCount }

// slabSize is the number of event records allocated per free-list
// refill. One refill covers a disk group's worth of concurrent timers;
// steady state never allocates again.
const slabSize = 64

// alloc returns a free node, refilling the pool from a fresh slab when
// empty.
func (env *Env) alloc() *node {
	if len(env.free) == 0 {
		if len(env.slab) == 0 {
			env.slab = make([]node, slabSize)
		}
		n := &env.slab[0]
		env.slab = env.slab[1:]
		n.env = env
		n.where = whereNone
		return n
	}
	n := env.free[len(env.free)-1]
	env.free = env.free[:len(env.free)-1]
	return n
}

// recycle returns a node to the free list, bumping its generation so
// outstanding handles observe the reuse, and dropping callback
// references so the pool does not pin dead objects.
func (env *Env) recycle(n *node) {
	n.gen++
	n.fn = nil
	n.arg = nil
	n.where = whereNone
	env.free = append(env.free, n)
}

// Schedule arranges for fn to run after delay simulated seconds and
// returns a handle that can cancel it. Schedule panics if delay is
// negative or NaN: scheduling into the past would silently corrupt the
// causal order of the run.
//
// Schedule allocates to box the closure; hot paths that fire per
// request should use ScheduleArg with a static function instead.
func (env *Env) Schedule(delay Time, fn func()) Event {
	if fn == nil {
		panic("sim: Schedule with nil callback")
	}
	return env.ScheduleArg(delay, runClosure, fn)
}

// At arranges for fn to run at absolute simulated time t. It panics if t
// is before the current time or NaN.
func (env *Env) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	return env.AtArg(t, runClosure, fn)
}

// runClosure adapts the closure-based Schedule/At API onto the
// (fn, arg) representation: the closure itself is the argument.
func runClosure(a any) { a.(func())() }

// ScheduleArg is the allocation-free form of Schedule: fn should be a
// package-level function and arg its pre-boxed state (boxing a pointer
// or a func value into any does not allocate). Same validation as
// Schedule.
func (env *Env) ScheduleArg(delay Time, fn func(any), arg any) Event {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, env.now))
	}
	return env.AtArg(env.now+delay, fn, arg)
}

// AtArg is the allocation-free form of At. See ScheduleArg.
func (env *Env) AtArg(t Time, fn func(any), arg any) Event {
	env.seq++
	return env.AtArgSeq(t, fn, arg, env.seq)
}

// ReserveSeqs claims the next n FIFO positions and returns the first.
// Together with AtArgSeq it lets a producer dispatch a time-sorted
// stream lazily — each event scheduling the next — while keeping the
// exact tie-breaking order it would have had scheduling the whole
// stream upfront: reserve the stream's positions at construction, then
// attach position base+i to the i-th event whenever it is actually
// scheduled. Sequence numbers only break ties between equal
// timestamps; holding reserved positions unscheduled does not delay
// any other event.
func (env *Env) ReserveSeqs(n int) uint64 {
	if n < 0 {
		panic(fmt.Sprintf("sim: ReserveSeqs(%d)", n))
	}
	base := env.seq + 1
	env.seq += uint64(n)
	return base
}

// AtArgSeq schedules like AtArg but at an explicit FIFO position
// previously obtained from ReserveSeqs. Scheduling the same position
// twice corrupts the tie order; the kernel does not check.
func (env *Env) AtArgSeq(t Time, fn func(any), arg any, seq uint64) Event {
	if t < env.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now=%v)", t, env.now))
	}
	if fn == nil {
		panic("sim: At with nil callback")
	}
	n := env.alloc()
	n.at = t
	n.seq = seq
	n.fn = fn
	n.arg = arg
	env.q.push(n)
	return Event{n: n, at: t, gen: n.gen}
}

// Step fires the next pending event, advancing the clock to its
// timestamp. It returns false when no events remain.
func (env *Env) Step() bool {
	n := env.q.pop()
	if n == nil {
		return false
	}
	env.now = n.at
	env.pos = n.seq
	env.stepCount++
	fn, arg := n.fn, n.arg
	// Recycle before invoking: the callback may schedule (reusing this
	// record immediately keeps the pool tight), and any Cancel it calls
	// on a handle to *this* event sees a bumped generation and no-ops.
	env.recycle(n)
	fn(arg)
	return true
}

// Run fires events until the queue is empty.
func (env *Env) Run() {
	for env.Step() {
	}
	env.pos = math.MaxUint64
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to exactly deadline. Events scheduled after the deadline remain
// pending.
func (env *Env) RunUntil(deadline Time) {
	if deadline < env.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) is in the past (now=%v)", deadline, env.now))
	}
	for {
		n := env.q.peek()
		if n == nil || n.at > deadline {
			break
		}
		env.Step()
	}
	env.now = deadline
	env.pos = math.MaxUint64
}

// Passed reports whether an event at (t, seq) would already have fired
// at the current position in the run: inside Step the position is the
// firing event's (Now, seq); after RunUntil or Run returns it is (Now,
// +∞). Models that keep a deadline instead of scheduling it (reserving
// its FIFO position with ReserveSeqs) settle it with Passed, which
// orders it against the running event by exactly the (at, seq) rule the
// queue uses.
func (env *Env) Passed(t Time, seq uint64) bool {
	return t < env.now || (t == env.now && seq < env.pos)
}

// RunWindows advances the simulation to horizon in epoch-length
// increments, calling fn at the end of every window with its bounds
// (final marks the window that reaches the horizon). Chunking changes
// nothing about the event order — RunUntil fires exactly the events a
// single RunUntil(horizon) would, in the same order — so an observer
// that only reads state sees a byte-identical run. This is the
// telemetry seam the windowed storage runner sits on. An fn error
// aborts the run and is returned.
func (env *Env) RunWindows(epoch, horizon Time, fn func(start, end Time, final bool) error) error {
	if epoch <= 0 || math.IsNaN(epoch) {
		panic(fmt.Sprintf("sim: RunWindows with invalid epoch %v", epoch))
	}
	start := env.now
	for k := 1; ; k++ {
		end := start + Time(k)*epoch
		final := end >= horizon
		if final {
			end = horizon
		}
		env.RunUntil(end)
		if err := fn(start+Time(k-1)*epoch, end, final); err != nil {
			return err
		}
		if final {
			return nil
		}
	}
}
