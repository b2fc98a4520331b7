package disk

import (
	"math/rand"
	"testing"

	"diskpack/internal/sim"
)

// Exact-tie tests for the lazily settled idle timeout. Each case pins
// a request or a window boundary to the exact instant of a deadline or
// of the spin-down completion and asserts the hand-derived outcome of
// the eager timer-event model: which side of the tie wins is decided by
// the (time, FIFO position) order the event queue uses.

// checkDurations asserts the per-state durations of a finalized disk.
func checkDurations(t *testing.T, d *Disk, want map[State]float64) {
	t.Helper()
	for s := State(0); s < numStates; s++ {
		if got := d.StateDuration(s); !almostEq(got, want[s], 1e-9) {
			t.Errorf("%v duration = %v, want %v", s, got, want[s])
		}
	}
}

// checkEnergy asserts a finalized disk's energy is the power-weighted
// sum of the expected durations.
func checkEnergy(t *testing.T, d *Disk, want map[State]float64) {
	t.Helper()
	p := d.Params()
	var e float64
	for s, dur := range want {
		e += p.Power(s) * dur
	}
	if !almostEq(d.Energy(), e, 1e-6) {
		t.Errorf("energy = %v, want %v", d.Energy(), e)
	}
}

// An arrival exactly at a deadline armed at construction loses the
// tie: the timer's FIFO position was taken before the arrival was
// scheduled, so the disk spins down first and the request waits for
// the spin-down to finish and a full spin-up.
func TestArrivalAtConstructionDeadlineSpinsDownFirst(t *testing.T) {
	env, d := newDisk(50)
	p := DefaultParams()
	var done sim.Time = -1
	env.At(50, func() {
		if d.State() != SpinningDown {
			t.Errorf("state at the deadline = %v, want spindown", d.State())
		}
		d.Submit(&Request{FileID: 1, Size: 72 * MB, Arrival: 50,
			Done: func(_ *Request, at sim.Time) { done = at }})
	})
	env.RunUntil(100)
	d.Finalize()
	serviceEnd := 60 + p.SpinUpTime + p.PositioningTime() + 1
	if !almostEq(done, serviceEnd, 1e-9) {
		t.Fatalf("completion = %v, want %v", done, serviceEnd)
	}
	if d.SpinDowns() != 1 || d.SpinUps() != 1 {
		t.Errorf("spinDowns=%d spinUps=%d, want 1 and 1", d.SpinDowns(), d.SpinUps())
	}
	want := map[State]float64{
		Idle:         50 + (100 - serviceEnd),
		SpinningDown: p.SpinDownTime,
		SpinningUp:   p.SpinUpTime,
		Seeking:      p.PositioningTime(),
		Transferring: 1,
	}
	checkDurations(t, d, want)
	checkEnergy(t, d, want)
}

// An arrival exactly at a deadline armed mid-run wins the tie when its
// FIFO position was reserved before the deadline was armed — as every
// trace arrival's is — so the disk serves it without spinning down.
func TestArrivalAtMidRunDeadlineWins(t *testing.T) {
	env, d := newDisk(50)
	p := DefaultParams()
	arr := env.ReserveSeqs(2) // trace arrivals reserve positions upfront
	var tIdle sim.Time = -1
	second := func(any) {
		if d.State() != Idle {
			t.Errorf("state at the mid-run deadline = %v, want idle", d.State())
		}
		d.Submit(&Request{FileID: 2, Size: 72 * MB, Arrival: env.Now()})
	}
	env.AtArgSeq(10, func(any) {
		d.Submit(&Request{FileID: 1, Size: 72 * MB, Arrival: 10,
			Done: func(_ *Request, at sim.Time) {
				// The disk re-arms its timeout at this instant, so the
				// deadline is exactly at+50.
				tIdle = at
				env.AtArgSeq(at+50, second, nil, arr+1)
			}})
	}, nil, arr)
	env.RunUntil(100)
	d.Finalize()
	if d.SpinDowns() != 0 || d.SpinUps() != 0 {
		t.Errorf("spinDowns=%d spinUps=%d, want 0 and 0", d.SpinDowns(), d.SpinUps())
	}
	if d.Served() != 2 {
		t.Fatalf("served %d, want 2", d.Served())
	}
	svc := p.PositioningTime() + 1
	secondEnd := tIdle + 50 + svc
	// The second request's completion re-arms a deadline at
	// secondEnd+50 > 100, so the disk idles to the horizon.
	want := map[State]float64{
		Idle:         10 + 50 + (100 - secondEnd),
		Seeking:      2 * p.PositioningTime(),
		Transferring: 2,
	}
	checkDurations(t, d, want)
	checkEnergy(t, d, want)
}

// An arrival exactly at the spin-down completion, inside a step, finds
// the disk still spinning down: the eager completion event took its
// FIFO position when the timeout fired, after the arrival's. The disk
// then goes straight into a spin-up with no standby time.
func TestArrivalAtSpinDownCompletionSeesSpinningDown(t *testing.T) {
	env, d := newDisk(50)
	p := DefaultParams()
	end := 50 + p.SpinDownTime
	var done sim.Time = -1
	env.At(end, func() {
		if d.State() != SpinningDown {
			t.Errorf("state at the spin-down completion = %v, want spindown", d.State())
		}
		d.Submit(&Request{FileID: 1, Size: 72 * MB, Arrival: end,
			Done: func(_ *Request, at sim.Time) { done = at }})
	})
	env.RunUntil(100)
	d.Finalize()
	serviceEnd := end + p.SpinUpTime + p.PositioningTime() + 1
	if !almostEq(done, serviceEnd, 1e-9) {
		t.Fatalf("completion = %v, want %v", done, serviceEnd)
	}
	if d.SpinDowns() != 1 || d.SpinUps() != 1 {
		t.Errorf("spinDowns=%d spinUps=%d, want 1 and 1", d.SpinDowns(), d.SpinUps())
	}
	want := map[State]float64{
		Idle:         50 + (100 - serviceEnd),
		SpinningDown: p.SpinDownTime,
		SpinningUp:   p.SpinUpTime,
		Seeking:      p.PositioningTime(),
		Transferring: 1,
	}
	checkDurations(t, d, want)
	checkEnergy(t, d, want)
}

// A RunUntil window ending exactly at a deadline settles it as fired
// (RunUntil fires every event at or before its bound), and one ending
// exactly at the spin-down completion settles the standby too — so a
// request submitted at that boundary, outside any step, spins up at
// once.
func TestWindowBoundaryAtDeadlineSettlesAsFired(t *testing.T) {
	env, d := newDisk(50)
	p := DefaultParams()
	env.RunUntil(50)
	if d.State() != SpinningDown || d.SpinDowns() != 1 {
		t.Fatalf("at the deadline: state=%v spinDowns=%d, want spindown and 1", d.State(), d.SpinDowns())
	}
	if got := d.EnergyAt(50); !almostEq(got, 50*p.IdlePower, 1e-9) {
		t.Errorf("EnergyAt(50) = %v, want %v", got, 50*p.IdlePower)
	}
	if got := d.StateDurationAt(Idle, 50); !almostEq(got, 50, 1e-9) {
		t.Errorf("idle duration at 50 = %v, want 50", got)
	}
	end := 50 + p.SpinDownTime
	env.RunUntil(end)
	if d.State() != Standby {
		t.Fatalf("at the spin-down completion: state=%v, want standby", d.State())
	}
	d.Submit(&Request{FileID: 1, Size: 72 * MB, Arrival: end})
	if d.State() != SpinningUp || d.SpinUps() != 1 {
		t.Fatalf("after a boundary submit: state=%v spinUps=%d, want spinup and 1", d.State(), d.SpinUps())
	}
	env.RunUntil(100)
	d.Finalize()
	serviceEnd := end + p.SpinUpTime + p.PositioningTime() + 1
	want := map[State]float64{
		Idle:         50 + (100 - serviceEnd),
		SpinningDown: p.SpinDownTime,
		SpinningUp:   p.SpinUpTime,
		Seeking:      p.PositioningTime(),
		Transferring: 1,
	}
	checkDurations(t, d, want)
	checkEnergy(t, d, want)
}

// randPolicy draws exponential timeouts from its own seeded stream and
// logs when each draw happened and which gaps it observed.
type randPolicy struct {
	env   *sim.Env
	rng   *rand.Rand
	draws []sim.Time // simulated time of each Timeout call
	vals  []float64
	gaps  []float64
}

func (r *randPolicy) Timeout() float64 {
	v := r.rng.ExpFloat64() * 20
	r.draws = append(r.draws, r.env.Now())
	r.vals = append(r.vals, v)
	return v
}

func (r *randPolicy) ObserveIdle(gap float64) { r.gaps = append(r.gaps, gap) }

// A randomized policy draws at exactly the points the eager model drew:
// once at construction and once at every idle start, never at a
// deadline, and each disk consumes its own stream in that order. The
// drawn timeouts then decide the spin-downs exactly.
func TestRandomizedPolicyDrawsAtIdleStarts(t *testing.T) {
	p := DefaultParams()
	env := sim.NewEnv()
	var pols [2]*randPolicy
	var disks [2]*Disk
	for i := range disks {
		pols[i] = &randPolicy{env: env, rng: rand.New(rand.NewSource(int64(7 + i)))}
		disks[i] = NewWithPolicy(env, i, p, pols[i])
	}
	// Disk i receives requests at these times, spaced wider than a
	// spin-up plus a service, so request k closes idle gap k and its
	// completion opens gap k+1.
	arrivals := [2][]sim.Time{{5, 40, 300, 330, 900}, {100, 650}}
	var idleStarts [2][]sim.Time
	for i, ts := range arrivals {
		i := i
		idleStarts[i] = []sim.Time{0}
		for k, at := range ts {
			k := k
			env.At(at, func() {
				disks[i].Submit(&Request{FileID: k, Size: 7 * MB, Arrival: env.Now(),
					Done: func(_ *Request, done sim.Time) {
						if disks[i].QueueLen() == 0 {
							idleStarts[i] = append(idleStarts[i], done)
						}
					}})
			})
		}
	}
	env.RunUntil(2000)
	for i, d := range disks {
		d.Finalize()
		pol := pols[i]
		if len(pol.draws) != len(idleStarts[i]) {
			t.Fatalf("disk %d: %d draws at %v, want one per idle start %v", i, len(pol.draws), pol.draws, idleStarts[i])
		}
		for k, at := range pol.draws {
			if at != idleStarts[i][k] {
				t.Errorf("disk %d draw %d at t=%v, want idle start %v", i, k, at, idleStarts[i][k])
			}
		}
		replay := rand.New(rand.NewSource(int64(7 + i)))
		spinDowns := 0
		for k, v := range pol.vals {
			if want := replay.ExpFloat64() * 20; v != want {
				t.Errorf("disk %d draw %d = %v, want stream value %v", i, k, v, want)
			}
			// A gap spins down when its deadline comes strictly before
			// the next arrival (no arrival ties here) or the horizon.
			next := sim.Time(2000)
			if k < len(arrivals[i]) {
				next = arrivals[i][k]
			}
			if idleStarts[i][k]+v < next {
				spinDowns++
			}
		}
		if d.SpinDowns() != spinDowns {
			t.Errorf("disk %d: spinDowns=%d, want %d from the drawn timeouts", i, d.SpinDowns(), spinDowns)
		}
		if len(pol.gaps) != len(arrivals[i]) {
			t.Errorf("disk %d: observed %d gaps, want %d", i, len(pol.gaps), len(arrivals[i]))
		}
	}
}
