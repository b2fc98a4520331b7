// Package disk models a single hard disk drive with the multi-mode
// power behaviour the paper simulates (Figure 1, Table 2): active
// read/write, seek, idle, standby, and the timed spin-up / spin-down
// transitions between them, plus the fixed idleness-threshold spin-down
// policy used by MAID-style systems.
//
// The default parameter set is the Seagate ST3500630AS (Barracuda
// 7200.10) exactly as listed in the paper's Table 2. With those numbers
// the break-even idleness threshold — the standby duration whose power
// saving repays one spin-down + spin-up cycle — evaluates to 53.3 s,
// matching the paper.
package disk

import (
	"fmt"
	"math"

	"diskpack/internal/obs"
	"diskpack/internal/sim"
)

// Params describes a disk drive's performance and power envelope.
// All times are seconds, powers are watts, sizes are bytes, and
// TransferRate is bytes per second.
type Params struct {
	Model           string
	RotationalRPM   int
	AvgSeekTime     float64
	AvgRotationTime float64
	CapacityBytes   int64
	TransferRate    float64
	IdlePower       float64
	StandbyPower    float64
	ActivePower     float64
	SeekPower       float64
	SpinUpPower     float64
	SpinDownPower   float64
	SpinUpTime      float64
	SpinDownTime    float64
}

// MB and GB are decimal byte units, matching the disk-vendor convention
// the paper uses (72 MB/s transfer, 188 MB minimum file size, ...).
const (
	KB = 1000
	MB = 1000 * KB
	GB = 1000 * MB
	TB = 1000 * GB
)

// DefaultParams returns the Seagate ST3500630AS parameters from the
// paper's Table 2.
func DefaultParams() Params {
	return Params{
		Model:           "Seagate ST3500630AS",
		RotationalRPM:   7200,
		AvgSeekTime:     8.5e-3,
		AvgRotationTime: 4.16e-3,
		CapacityBytes:   500 * GB,
		TransferRate:    72 * MB,
		IdlePower:       9.3,
		StandbyPower:    0.8,
		ActivePower:     13,
		SeekPower:       12.6,
		SpinUpPower:     24,
		SpinDownPower:   9.3,
		SpinUpTime:      15,
		SpinDownTime:    10,
	}
}

// EcoParams returns a 5400 RPM nearline-class drive: bigger and far
// cheaper to keep spinning than the Table 2 drive, but slower to
// position and transfer. Mixing these with DefaultParams drives in one
// farm is the heterogeneous scenario the paper's homogeneous evaluation
// cannot express — cold data on eco spindles, hot data on fast ones.
func EcoParams() Params {
	return Params{
		Model:           "Eco 5400rpm nearline",
		RotationalRPM:   5400,
		AvgSeekTime:     12e-3,
		AvgRotationTime: 5.55e-3,
		CapacityBytes:   1 * TB,
		TransferRate:    45 * MB,
		IdlePower:       5.0,
		StandbyPower:    0.6,
		ActivePower:     8.0,
		SeekPower:       7.5,
		SpinUpPower:     20,
		SpinDownPower:   5.0,
		SpinUpTime:      12,
		SpinDownTime:    8,
	}
}

// Validate reports the first implausible parameter, or nil.
func (p Params) Validate() error { return p.validate() }

// validate is Validate without copying p, for per-disk construction.
func (p *Params) validate() error {
	switch {
	case p.TransferRate <= 0:
		return fmt.Errorf("disk: TransferRate %v must be positive", p.TransferRate)
	case p.CapacityBytes <= 0:
		return fmt.Errorf("disk: CapacityBytes %d must be positive", p.CapacityBytes)
	case p.AvgSeekTime < 0 || p.AvgRotationTime < 0:
		return fmt.Errorf("disk: negative positioning time")
	case p.SpinUpTime < 0 || p.SpinDownTime < 0:
		return fmt.Errorf("disk: negative transition time")
	case p.IdlePower < 0 || p.StandbyPower < 0 || p.ActivePower < 0 ||
		p.SeekPower < 0 || p.SpinUpPower < 0 || p.SpinDownPower < 0:
		return fmt.Errorf("disk: negative power")
	case p.StandbyPower > p.IdlePower:
		return fmt.Errorf("disk: standby power %v exceeds idle power %v — spin-down would never save energy",
			p.StandbyPower, p.IdlePower)
	}
	return nil
}

// PositioningTime returns the average positioning overhead per request
// (seek + rotational latency).
func (p Params) PositioningTime() float64 { return p.AvgSeekTime + p.AvgRotationTime }

// TransferTime returns the time to stream size bytes at the sustained
// rate.
func (p Params) TransferTime(size int64) float64 {
	return float64(size) / p.TransferRate
}

// ServiceTime returns positioning plus transfer time for a whole-file
// read of size bytes; this is the µ_i = f(s_i) of the paper's load
// definition l_i = R·p_i·µ_i.
func (p Params) ServiceTime(size int64) float64 {
	return p.PositioningTime() + p.TransferTime(size)
}

// TransitionEnergy returns the energy in joules consumed by one
// spin-down followed by one spin-up.
func (p Params) TransitionEnergy() float64 {
	return p.SpinDownPower*p.SpinDownTime + p.SpinUpPower*p.SpinUpTime
}

// BreakEvenThreshold returns the idleness threshold used by the paper
// (after Pinheiro & Bianchini): the time the disk must remain in standby
// for the idle-vs-standby power difference to pay back one
// spin-down+spin-up cycle. For Table 2 parameters this is
// (9.3·10 + 24·15) / (9.3 − 0.8) = 453/8.5 = 53.29… ≈ 53.3 s.
func (p Params) BreakEvenThreshold() float64 {
	saving := p.IdlePower - p.StandbyPower
	if saving <= 0 {
		return math.Inf(1)
	}
	return p.TransitionEnergy() / saving
}

// State enumerates the power states of the simulated drive.
type State int

// Disk power states. Seeking covers seek + rotational positioning (at
// seek power); Transferring is the sustained read (at active power).
const (
	Idle State = iota
	Standby
	SpinningUp
	SpinningDown
	Seeking
	Transferring
	numStates
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Standby:
		return "standby"
	case SpinningUp:
		return "spinup"
	case SpinningDown:
		return "spindown"
	case Seeking:
		return "seek"
	case Transferring:
		return "active"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Power returns the wattage drawn in state s under params p.
func (p Params) Power(s State) float64 { return p.power(s) }

// power is Power without the copy of p a value receiver costs on the
// per-transition path.
func (p *Params) power(s State) float64 {
	switch s {
	case Idle:
		return p.IdlePower
	case Standby:
		return p.StandbyPower
	case SpinningUp:
		return p.SpinUpPower
	case SpinningDown:
		return p.SpinDownPower
	case Seeking:
		return p.SeekPower
	case Transferring:
		return p.ActivePower
	default:
		panic(fmt.Sprintf("disk: unknown state %d", int(s)))
	}
}

// NeverSpinDown disables the spin-down policy when used as the idleness
// threshold: the disk idles at full idle power forever, which is the
// paper's "no power-saving mechanism" normalization baseline.
var NeverSpinDown = math.Inf(1)

// SpinPolicy decides how long a disk dwells in the idle state before
// spinning down. The paper uses a fixed break-even threshold (Section
// 4, after Pinheiro & Bianchini); the dynamic-power-management
// literature it surveys (Section 2) studies adaptive and randomized
// timeout policies, implemented in internal/policy.
type SpinPolicy interface {
	// Timeout returns the idleness timeout in seconds to use for the
	// next idle period. math.Inf(1) means never spin down; 0 means
	// spin down immediately.
	Timeout() float64
	// ObserveIdle reports the length of a completed idle gap — the
	// time from entering idle (service completion) to the next
	// request arrival — letting adaptive policies learn. Gaps that
	// are still open when the simulation ends are not reported.
	ObserveIdle(gap float64)
}

// fixedPolicy is the paper's fixed idleness threshold.
type fixedPolicy float64

func (f fixedPolicy) Timeout() float64  { return float64(f) }
func (fixedPolicy) ObserveIdle(float64) {}

// Request is a whole-file read submitted to a disk. Done, if non-nil,
// runs at completion time with the request itself; response time is
// completion minus Arrival (queueing + spin-up penalty + service).
// Callers that pool Requests may recycle the struct from inside Done —
// the disk holds no reference past that call.
type Request struct {
	FileID  int
	Size    int64
	Arrival sim.Time
	Done    func(*Request, sim.Time)

	// Tag is caller-owned context carried through to Done (the storage
	// layer stores the disk index here so one shared Done function can
	// serve every request without a per-request closure).
	Tag int

	// ServiceStart records when the disk began positioning for this
	// request, for wait-time decomposition.
	ServiceStart sim.Time
}

// Disk is a simulated drive bound to a sim.Env. Submit requests with
// Submit; spin-down policy, queueing, and energy accounting are
// internal. Metrics accessors are valid any time; call Finalize once at
// the end of the run to close the last accounting segment.
//
// The idle timeout is settled lazily rather than scheduled: an idle
// disk records its spin-down deadline (and the FIFO position the timer
// event would have taken), and the spin-down and the standby that
// follows it are applied at their exact times the next time the disk
// is touched — by Submit, Finalize, or any state or accounting
// accessor. A farm of mostly cold disks therefore costs no events for
// the disks that never serve a request.
type Disk struct {
	ID     int
	env    *sim.Env
	params *Params // shared with the caller, never written
	policy SpinPolicy

	state      State
	lastChange sim.Time
	idleSince  sim.Time // start of the current idle gap
	inGap      bool
	energy     float64
	stateDur   [numStates]float64

	queue []*Request // head-indexed deque: live entries are queue[qhead:]
	qhead int
	// deadline is when the armed idle timeout spins the disk down
	// (+Inf when none is armed); deadlineSeq is the FIFO position
	// reserved for it, which orders it against same-time events.
	deadline    sim.Time
	deadlineSeq uint64
	wantUp      bool // a request arrived while spinning down

	spinUps   int
	spinDowns int
	served    int64
	bytesRead int64
	peakQueue int
	finalized bool

	// rec, when non-nil, receives every state transition (observation
	// only — tracing never alters behaviour). The nil check is the
	// entire disabled-path cost.
	rec *obs.TraceRecorder
}

// New returns a disk in the Idle (spinning) state with its idleness
// timer armed, matching the paper's simulation start condition.
// threshold is the fixed idleness threshold in seconds; use
// params.BreakEvenThreshold() for the paper's policy or NeverSpinDown to
// disable spin-down. New panics on invalid params or negative threshold.
//
// The timeout is settled lazily (see Disk): no event marks it, so
// Env.Run stops at the last real event without advancing the clock to
// a pending spin-down. Advance the env with RunUntil(horizon) before
// reading the disk, or call Finalize at the horizon.
func New(env *sim.Env, id int, params Params, threshold float64) *Disk {
	if threshold < 0 || math.IsNaN(threshold) {
		panic(fmt.Sprintf("disk: invalid idleness threshold %v", threshold))
	}
	return NewWithPolicy(env, id, params, fixedPolicy(threshold))
}

// NewWithPolicy returns a disk whose spin-down timing is governed by an
// arbitrary SpinPolicy (see internal/policy for adaptive and randomized
// implementations). The policy's first Timeout is drawn here, and the
// idle timeout is settled lazily as for New.
func NewWithPolicy(env *sim.Env, id int, params Params, pol SpinPolicy) *Disk {
	d := new(Disk)
	InitWithPolicy(d, env, id, &params, pol)
	return d
}

// InitWithPolicy is NewWithPolicy building the disk in place at d,
// overwriting whatever d held, so a caller can lay out many disks in
// one slab instead of allocating each. params is shared, not copied,
// so disks of one drive model can point at one Params; it must not
// change while the disk is in use.
func InitWithPolicy(d *Disk, env *sim.Env, id int, params *Params, pol SpinPolicy) {
	if err := params.validate(); err != nil {
		panic(err)
	}
	if pol == nil {
		panic("disk: nil SpinPolicy")
	}
	// Field by field rather than from a composite literal, which
	// would build the whole Disk on the stack and copy it in.
	*d = Disk{}
	d.ID, d.env, d.params, d.policy = id, env, params, pol
	d.state = Idle
	d.lastChange, d.idleSince = env.Now(), env.Now()
	d.inGap = true
	d.armIdleTimer()
}

// SetRecorder attaches a state-timeline recorder (nil detaches). The
// disk's current state is recorded as the timeline's opening segment,
// so attach at construction time, before any simulated time passes.
func (d *Disk) SetRecorder(r *obs.TraceRecorder) {
	d.rec = r
	if r != nil {
		r.StateChange(d.ID, float64(d.env.Now()), int(d.state))
	}
}

// StateNames returns the State display names indexed by state value
// (the vocabulary trace timelines are rendered with).
func StateNames() []string {
	names := make([]string, numStates)
	for s := State(0); s < numStates; s++ {
		names[s] = s.String()
	}
	return names
}

// Params returns the drive parameters.
func (d *Disk) Params() Params { return *d.params }

// State returns the current power state.
func (d *Disk) State() State {
	d.settle()
	return d.state
}

// QueueLen returns the number of requests waiting or in service.
func (d *Disk) QueueLen() int { return len(d.queue) - d.qhead }

// Served returns the number of completed requests.
func (d *Disk) Served() int64 { return d.served }

// BytesRead returns the total bytes transferred.
func (d *Disk) BytesRead() int64 { return d.bytesRead }

// SpinUps returns the number of spin-up transitions performed.
func (d *Disk) SpinUps() int { return d.spinUps }

// SpinDowns returns the number of spin-down transitions performed.
func (d *Disk) SpinDowns() int {
	d.settle()
	return d.spinDowns
}

// PeakQueueLen returns the largest queue length observed (including the
// request in service).
func (d *Disk) PeakQueueLen() int { return d.peakQueue }

// Submit enqueues a whole-file read. If the disk is in standby it begins
// spinning up; if it is mid-spin-down the spin-down completes first and
// a spin-up follows immediately (a drive cannot abort a spin-down).
func (d *Disk) Submit(req *Request) {
	if d.finalized {
		panic("disk: Submit after Finalize")
	}
	d.settle()
	if d.inGap {
		// The idle gap that began at the last service completion ends
		// now; adaptive policies learn from its length.
		d.policy.ObserveIdle(d.env.Now() - d.idleSince)
		d.inGap = false
	}
	if d.qhead > 0 && len(d.queue) == cap(d.queue) {
		// Reclaim the dequeued prefix instead of growing: the queue is a
		// head-indexed deque precisely so steady-state traffic reuses one
		// backing array (a [1:] re-slice leaks its front capacity and
		// reallocates every ~cap requests).
		n := copy(d.queue, d.queue[d.qhead:])
		for i := n; i < len(d.queue); i++ {
			d.queue[i] = nil
		}
		d.queue = d.queue[:n]
		d.qhead = 0
	}
	d.queue = append(d.queue, req)
	if d.QueueLen() > d.peakQueue {
		d.peakQueue = d.QueueLen()
	}
	switch d.state {
	case Idle:
		d.deadline = noDeadline
		d.startNext()
	case Standby:
		d.beginSpinUp()
	case SpinningDown:
		if !d.wantUp {
			// The spin-down completes as a real event now, so the
			// spin-up can follow it.
			d.wantUp = true
			d.env.AtArg(d.lastChange+d.params.SpinDownTime, spinDownDoneCB, d)
		}
	case SpinningUp, Seeking, Transferring:
		// Queued; the in-flight transition or service will drain it.
	}
}

// transition moves to state s now, charging the elapsed segment to the
// previous state.
func (d *Disk) transition(s State) { d.transitionAt(s, d.env.Now()) }

// transitionAt moves to state s at time now (no earlier than the last
// change), charging the elapsed segment to the previous state.
func (d *Disk) transitionAt(s State, now sim.Time) {
	dt := now - d.lastChange
	d.energy += d.params.power(d.state) * dt
	d.stateDur[d.state] += dt
	if d.rec != nil && s != d.state {
		d.rec.StateChange(d.ID, float64(now), int(s))
	}
	d.state = s
	d.lastChange = now
}

// enterIdle transitions to Idle with an empty queue, opening a new
// idle gap and arming the policy's timeout.
func (d *Disk) enterIdle() {
	d.transition(Idle)
	d.idleSince = d.env.Now()
	d.inGap = true
	d.armIdleTimer()
}

// Event callbacks are package-level functions taking the disk as the
// boxed argument: sim.ScheduleArg with a static func and a pointer arg
// performs no per-event allocation, unlike method values or closures.
func spinDownDoneCB(a any) { a.(*Disk).onSpinDownComplete() }
func spinUpDoneCB(a any)   { a.(*Disk).onSpinUpComplete() }
func seekDoneCB(a any)     { a.(*Disk).onSeekDone() }
func transferDoneCB(a any) { a.(*Disk).onTransferDone() }

// noDeadline marks that no idle timeout is armed; Passed never
// reports +Inf as reached.
var noDeadline = math.Inf(1)

// afterAllSeq is a FIFO position later than any real event's. The
// eager spin-down-complete event took its position when the timeout
// fired, after every trace arrival's reserved one, so an arrival at
// exactly the completion instant found the disk still spinning down;
// after RunUntil returns, the completion at the boundary has fired.
const afterAllSeq = math.MaxUint64 - 1

// armIdleTimer draws the policy's timeout for the idle period starting
// now and records its deadline. Nothing is scheduled: the FIFO
// position the timer event would have taken is reserved, which keeps
// every other event's tie order unchanged, and settle applies the
// spin-down once the deadline has passed.
func (d *Disk) armIdleTimer() {
	d.deadline = noDeadline
	t := d.policy.Timeout()
	if math.IsInf(t, 1) {
		return
	}
	if t < 0 || math.IsNaN(t) {
		panic(fmt.Sprintf("disk: policy returned invalid timeout %v", t))
	}
	d.deadline = d.env.Now() + t
	d.deadlineSeq = d.env.ReserveSeqs(1)
}

// settle applies the idle timeout's effects up to the env's current
// position: the spin-down at the deadline, then the standby
// SpinDownTime later, each at its own time. A spin-down interrupted by
// a request completes through a real event instead (see Submit).
func (d *Disk) settle() {
	if d.finalized {
		return
	}
	if d.state == Idle && d.env.Passed(d.deadline, d.deadlineSeq) {
		d.transitionAt(SpinningDown, d.deadline)
		d.spinDowns++
		d.deadline = noDeadline
	}
	if d.state == SpinningDown && !d.wantUp {
		if end := d.lastChange + d.params.SpinDownTime; d.env.Passed(end, afterAllSeq) {
			d.transitionAt(Standby, end)
		}
	}
}

// onSpinDownComplete fires only for a spin-down a request arrived
// during: charge the completed spin-down segment, then immediately
// start spinning back up.
func (d *Disk) onSpinDownComplete() {
	d.wantUp = false
	d.beginSpinUp()
}

func (d *Disk) beginSpinUp() {
	d.transition(SpinningUp)
	d.spinUps++
	d.env.ScheduleArg(d.params.SpinUpTime, spinUpDoneCB, d)
}

func (d *Disk) onSpinUpComplete() {
	if d.QueueLen() > 0 {
		d.startNext()
		return
	}
	d.enterIdle()
}

// startNext begins servicing the queue head. Caller guarantees the disk
// is spinning (Idle or just finished SpinningUp/Transferring). The
// in-service request stays at the queue head until completion (FIFO
// single-server), so the seek and transfer callbacks need no captured
// request — and therefore no closure.
func (d *Disk) startNext() {
	d.queue[d.qhead].ServiceStart = d.env.Now()
	d.transition(Seeking)
	d.env.ScheduleArg(d.params.PositioningTime(), seekDoneCB, d)
}

func (d *Disk) onSeekDone() {
	d.transition(Transferring)
	d.env.ScheduleArg(d.params.TransferTime(d.queue[d.qhead].Size), transferDoneCB, d)
}

func (d *Disk) onTransferDone() {
	req := d.queue[d.qhead]
	// Dequeue head (must be req: FIFO single-server).
	d.queue[d.qhead] = nil
	d.qhead++
	if d.qhead == len(d.queue) {
		d.queue = d.queue[:0]
		d.qhead = 0
	}
	d.served++
	d.bytesRead += req.Size
	if req.Done != nil {
		req.Done(req, d.env.Now())
	}
	if d.QueueLen() > 0 {
		d.startNext()
		return
	}
	d.enterIdle()
}

// Finalize settles the idle timeout and closes the open accounting
// segment at the current simulated time, so call it with the env at
// the horizon (after RunUntil(horizon)). Further Submits panic;
// metrics accessors return final values. Calling Finalize more than
// once is a no-op after the first.
func (d *Disk) Finalize() {
	if d.finalized {
		return
	}
	d.settle()
	d.transition(d.state) // charge the tail segment
	d.finalized = true
}

// Energy returns the energy consumed so far in joules (up to the last
// state change; call Finalize for an exact end-of-run figure).
func (d *Disk) Energy() float64 {
	d.settle()
	return d.energy
}

// EnergyAt returns the energy consumed through simulated time t >= the
// last state change, extending the current state.
func (d *Disk) EnergyAt(t sim.Time) float64 {
	d.settle()
	return d.energy + d.params.power(d.state)*(t-d.lastChange)
}

// StateDuration returns the cumulative time spent in state s (up to the
// last state change).
func (d *Disk) StateDuration(s State) float64 {
	d.settle()
	return d.stateDur[s]
}

// StateDurationAt returns the cumulative time spent in state s through
// simulated time t >= the last state change, extending the open segment
// — the mid-run counterpart of StateDuration, which misses the segment
// still in progress.
func (d *Disk) StateDurationAt(s State, t sim.Time) float64 {
	d.settle()
	dur := d.stateDur[s]
	if d.state == s {
		dur += t - d.lastChange
	}
	return dur
}

// Breakdown summarizes where a disk's time and energy went.
type Breakdown struct {
	Durations [numStates]float64
	Energy    float64
	SpinUps   int
	SpinDowns int
	Served    int64
	BytesRead int64
}

// Breakdown returns the current accounting snapshot.
func (d *Disk) Breakdown() Breakdown {
	d.settle()
	return Breakdown{
		Durations: d.stateDur,
		Energy:    d.energy,
		SpinUps:   d.spinUps,
		SpinDowns: d.spinDowns,
		Served:    d.served,
		BytesRead: d.bytesRead,
	}
}
