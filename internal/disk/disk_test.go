package disk

import (
	"math"
	"testing"

	"diskpack/internal/sim"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestBreakEvenThresholdMatchesPaper verifies the headline constant of
// the paper's Table 2: the ST3500630AS break-even idleness threshold is
// 53.3 seconds.
func TestBreakEvenThresholdMatchesPaper(t *testing.T) {
	p := DefaultParams()
	got := p.BreakEvenThreshold()
	if !almostEq(got, 53.3, 0.05) {
		t.Fatalf("break-even threshold = %.4f s, paper says 53.3 s", got)
	}
	// And the intermediate quantities used in the derivation.
	if e := p.TransitionEnergy(); !almostEq(e, 453, 1e-9) {
		t.Errorf("transition energy = %v J, want 453 J (9.3*10 + 24*15)", e)
	}
}

// TestServiceTimeMatchesPaperMeanFile checks the paper's Section 5.1
// arithmetic: a 544 MB file at 72 MB/s takes about 7.56 s of service.
func TestServiceTimeMatchesPaperMeanFile(t *testing.T) {
	p := DefaultParams()
	got := p.ServiceTime(544 * MB)
	if !almostEq(got, 7.56, 0.03) {
		t.Fatalf("service time for 544MB = %.4f s, paper says ~7.56 s", got)
	}
}

func TestDefaultParamsTable2(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"idle power", p.IdlePower, 9.3},
		{"standby power", p.StandbyPower, 0.8},
		{"active power", p.ActivePower, 13},
		{"seek power", p.SeekPower, 12.6},
		{"spinup power", p.SpinUpPower, 24},
		{"spindown power", p.SpinDownPower, 9.3},
		{"spinup time", p.SpinUpTime, 15},
		{"spindown time", p.SpinDownTime, 10},
		{"transfer rate", p.TransferRate, 72e6},
		{"capacity", float64(p.CapacityBytes), 500e9},
		{"avg seek", p.AvgSeekTime, 8.5e-3},
		{"avg rotation", p.AvgRotationTime, 4.16e-3},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %v want %v", c.name, c.got, c.want)
		}
	}
	if err := p.Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.TransferRate = 0 },
		func(p *Params) { p.CapacityBytes = -1 },
		func(p *Params) { p.AvgSeekTime = -1 },
		func(p *Params) { p.SpinUpTime = -1 },
		func(p *Params) { p.IdlePower = -1 },
		func(p *Params) { p.StandbyPower = 100 }, // exceeds idle
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: Validate accepted bad params", i)
		}
	}
}

func TestPowerPerState(t *testing.T) {
	p := DefaultParams()
	want := map[State]float64{
		Idle: 9.3, Standby: 0.8, SpinningUp: 24,
		SpinningDown: 9.3, Seeking: 12.6, Transferring: 13,
	}
	for s, w := range want {
		if got := p.Power(s); got != w {
			t.Errorf("Power(%v)=%v want %v", s, got, w)
		}
	}
}

func TestStateStrings(t *testing.T) {
	names := map[State]string{
		Idle: "idle", Standby: "standby", SpinningUp: "spinup",
		SpinningDown: "spindown", Seeking: "seek", Transferring: "active",
	}
	for s, w := range names {
		if s.String() != w {
			t.Errorf("State(%d).String()=%q want %q", int(s), s.String(), w)
		}
	}
}

// newDisk builds a disk with a fresh env for table-style tests.
func newDisk(threshold float64) (*sim.Env, *Disk) {
	env := sim.NewEnv()
	return env, New(env, 0, DefaultParams(), threshold)
}

func TestIdleDiskSpinsDownAfterThreshold(t *testing.T) {
	env, d := newDisk(60)
	env.RunUntil(59)
	if d.State() != Idle {
		t.Fatalf("state before threshold = %v want idle", d.State())
	}
	env.RunUntil(60 + DefaultParams().SpinDownTime - 0.001)
	if d.State() != SpinningDown {
		t.Fatalf("state during spin-down = %v", d.State())
	}
	env.RunUntil(60 + DefaultParams().SpinDownTime + 0.001)
	if d.State() != Standby {
		t.Fatalf("state after spin-down = %v want standby", d.State())
	}
	if d.SpinDowns() != 1 {
		t.Errorf("spinDowns=%d want 1", d.SpinDowns())
	}
}

func TestNeverSpinDownStaysIdle(t *testing.T) {
	env, d := newDisk(NeverSpinDown)
	env.RunUntil(100000)
	if d.State() != Idle {
		t.Fatalf("state=%v want idle forever", d.State())
	}
	d.Finalize()
	wantEnergy := 9.3 * 100000
	if !almostEq(d.Energy(), wantEnergy, 1e-6) {
		t.Errorf("energy=%v want %v", d.Energy(), wantEnergy)
	}
}

func TestRequestServiceFromIdle(t *testing.T) {
	env, d := newDisk(NeverSpinDown)
	p := DefaultParams()
	var completed sim.Time = -1
	env.Schedule(10, func() {
		d.Submit(&Request{FileID: 1, Size: 72 * MB, Arrival: env.Now(),
			Done: func(_ *Request, tDone sim.Time) { completed = tDone }})
	})
	env.Run()
	want := 10 + p.PositioningTime() + 1.0 // 72MB at 72MB/s = 1s transfer
	if !almostEq(completed, want, 1e-9) {
		t.Fatalf("completion=%v want %v", completed, want)
	}
	if d.Served() != 1 || d.BytesRead() != 72*MB {
		t.Errorf("served=%d bytes=%d", d.Served(), d.BytesRead())
	}
}

func TestRequestToStandbyDiskPaysSpinUp(t *testing.T) {
	env, d := newDisk(50)
	p := DefaultParams()
	var completed sim.Time = -1
	// Disk idles from t=0, spins down at t=50, standby at t=60.
	env.Schedule(100, func() {
		d.Submit(&Request{FileID: 1, Size: 72 * MB, Arrival: env.Now(),
			Done: func(_ *Request, tDone sim.Time) { completed = tDone }})
	})
	env.Run()
	want := 100 + p.SpinUpTime + p.PositioningTime() + 1.0
	if !almostEq(completed, want, 1e-9) {
		t.Fatalf("completion=%v want %v (spin-up penalty missing?)", completed, want)
	}
	if d.SpinUps() != 1 {
		t.Errorf("spinUps=%d want 1", d.SpinUps())
	}
}

func TestRequestDuringSpinDownWaitsForDownThenUp(t *testing.T) {
	env, d := newDisk(50)
	p := DefaultParams()
	var completed sim.Time = -1
	// Spin-down starts at t=50, ends t=60. Request at t=55 must wait
	// for the spin-down to complete, then a full spin-up.
	env.Schedule(55, func() {
		d.Submit(&Request{FileID: 1, Size: 72 * MB, Arrival: env.Now(),
			Done: func(_ *Request, tDone sim.Time) { completed = tDone }})
	})
	env.Run()
	want := 60 + p.SpinUpTime + p.PositioningTime() + 1.0
	if !almostEq(completed, want, 1e-9) {
		t.Fatalf("completion=%v want %v", completed, want)
	}
	if d.State() != Standby && d.State() != Idle && d.State() != SpinningDown {
		t.Logf("final state %v", d.State())
	}
}

func TestFIFOQueueing(t *testing.T) {
	env, d := newDisk(NeverSpinDown)
	p := DefaultParams()
	var order []int
	var times []sim.Time
	submit := func(id int) {
		d.Submit(&Request{FileID: id, Size: 72 * MB, Arrival: env.Now(),
			Done: func(r *Request, tDone sim.Time) {
				order = append(order, r.FileID)
				times = append(times, tDone)
			}})
	}
	env.Schedule(0, func() { submit(1); submit(2); submit(3) })
	env.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order=%v want [1 2 3]", order)
	}
	per := p.PositioningTime() + 1.0
	for i, tt := range times {
		want := float64(i+1) * per
		if !almostEq(tt, want, 1e-9) {
			t.Errorf("completion %d at %v want %v", i, tt, want)
		}
	}
}

func TestArrivalDuringServiceQueues(t *testing.T) {
	env, d := newDisk(NeverSpinDown)
	var done2 sim.Time = -1
	env.Schedule(0, func() {
		d.Submit(&Request{FileID: 1, Size: 720 * MB, Arrival: 0}) // 10 s transfer
	})
	env.Schedule(1, func() {
		d.Submit(&Request{FileID: 2, Size: 72 * MB, Arrival: 1,
			Done: func(_ *Request, tDone sim.Time) { done2 = tDone }})
	})
	env.Run()
	p := DefaultParams()
	first := p.PositioningTime() + 10.0
	want := first + p.PositioningTime() + 1.0
	if !almostEq(done2, want, 1e-9) {
		t.Fatalf("second completion=%v want %v", done2, want)
	}
}

func TestIdleTimerResetAfterService(t *testing.T) {
	env, d := newDisk(50)
	env.Schedule(40, func() {
		d.Submit(&Request{FileID: 1, Size: 72 * MB, Arrival: 40})
	})
	env.RunUntil(1000)
	// Service ends ≈ 41.01; timer re-arms; spin-down at ≈ 91, standby
	// at ≈ 101.
	if d.State() != Standby {
		t.Fatalf("final state=%v want standby", d.State())
	}
	if d.SpinDowns() != 1 {
		t.Errorf("spinDowns=%d want 1", d.SpinDowns())
	}
	down := 40.0 + DefaultParams().PositioningTime() + 1.0 + 50.0
	if !almostEq(d.StateDuration(Idle), 40+50, 0.1) {
		t.Errorf("idle duration=%v want ~90 (until %v)", d.StateDuration(Idle), down)
	}
}

func TestEnergyAccountingSimpleTimeline(t *testing.T) {
	// threshold=10: idle [0,10), spindown [10,20), standby [20,100).
	env, d := newDisk(10)
	env.RunUntil(100)
	d.Finalize()
	want := 9.3*10 + 9.3*10 + 0.8*80
	if !almostEq(d.Energy(), want, 1e-6) {
		t.Fatalf("energy=%v want %v", d.Energy(), want)
	}
	if !almostEq(d.StateDuration(Idle), 10, 1e-9) ||
		!almostEq(d.StateDuration(SpinningDown), 10, 1e-9) ||
		!almostEq(d.StateDuration(Standby), 80, 1e-9) {
		t.Errorf("durations: idle=%v down=%v standby=%v",
			d.StateDuration(Idle), d.StateDuration(SpinningDown), d.StateDuration(Standby))
	}
}

func TestEnergyWithServiceBreakdown(t *testing.T) {
	env, d := newDisk(NeverSpinDown)
	p := DefaultParams()
	env.Schedule(0, func() {
		d.Submit(&Request{FileID: 1, Size: 720 * MB, Arrival: 0})
	})
	env.RunUntil(20)
	d.Finalize()
	pos := p.PositioningTime()
	serviceEnd := pos + 10.0
	want := p.SeekPower*pos + p.ActivePower*10.0 + p.IdlePower*(20-serviceEnd)
	if !almostEq(d.Energy(), want, 1e-6) {
		t.Fatalf("energy=%v want %v", d.Energy(), want)
	}
	b := d.Breakdown()
	if !almostEq(b.Durations[Seeking], pos, 1e-9) {
		t.Errorf("seek duration=%v want %v", b.Durations[Seeking], pos)
	}
	if !almostEq(b.Durations[Transferring], 10, 1e-9) {
		t.Errorf("transfer duration=%v want 10", b.Durations[Transferring])
	}
}

func TestEnergyAtExtendsCurrentState(t *testing.T) {
	env, d := newDisk(NeverSpinDown)
	env.RunUntil(10)
	got := d.EnergyAt(10)
	if !almostEq(got, 93, 1e-9) {
		t.Fatalf("EnergyAt(10)=%v want 93", got)
	}
}

func TestBreakEvenEnergyEquivalence(t *testing.T) {
	// Run two disks for exactly threshold+downtime+uptime... Simpler
	// physical check: staying idle for T_be consumes the same energy
	// as (spin down + standby dwell that makes up the difference +
	// spin up). By construction of BreakEvenThreshold:
	// Idle*T == E_transition + Standby*T  where T = T_be' solves
	// (Idle-Standby)*T = E_transition.
	p := DefaultParams()
	T := p.BreakEvenThreshold()
	idleEnergy := p.IdlePower * T
	cycleEnergy := p.TransitionEnergy() + p.StandbyPower*T
	if !almostEq(idleEnergy, cycleEnergy, 1e-9) {
		t.Fatalf("break-even identity violated: idle=%v cycle=%v", idleEnergy, cycleEnergy)
	}
}

func TestZeroThresholdSpinsDownImmediately(t *testing.T) {
	env, d := newDisk(0)
	env.RunUntil(DefaultParams().SpinDownTime + 1)
	if d.State() != Standby {
		t.Fatalf("state=%v want standby right after spin-down", d.State())
	}
}

func TestSpinUpServesWholeQueue(t *testing.T) {
	env, d := newDisk(0)
	var done int
	// Disk is in standby by t=11. Submit 3 requests at t=20.
	env.Schedule(20, func() {
		for i := 0; i < 3; i++ {
			d.Submit(&Request{FileID: i, Size: 72 * MB, Arrival: 20,
				Done: func(*Request, sim.Time) { done++ }})
		}
	})
	env.Run()
	if done != 3 {
		t.Fatalf("done=%d want 3", done)
	}
	if d.SpinUps() != 1 {
		t.Errorf("spinUps=%d want exactly 1 for a batch", d.SpinUps())
	}
}

func TestSubmitAfterFinalizePanics(t *testing.T) {
	env, d := newDisk(NeverSpinDown)
	d.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Finalize did not panic")
		}
	}()
	d.Submit(&Request{FileID: 1, Size: 1, Arrival: env.Now()})
}

func TestFinalizeIdempotent(t *testing.T) {
	env, d := newDisk(NeverSpinDown)
	env.RunUntil(10)
	d.Finalize()
	e := d.Energy()
	d.Finalize()
	if d.Energy() != e {
		t.Fatal("second Finalize changed energy")
	}
}

func TestInvalidThresholdPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative threshold did not panic")
		}
	}()
	newDisk(-5)
}

// TestEnergyConservationProperty: for any random request pattern, total
// energy equals sum over states of duration*power, and durations sum to
// the elapsed time.
func TestEnergyConservationProperty(t *testing.T) {
	p := DefaultParams()
	for seed := int64(0); seed < 20; seed++ {
		env := sim.NewEnv()
		d := New(env, 0, p, 30)
		rng := newRand(seed)
		tt := 0.0
		for i := 0; i < 50; i++ {
			tt += rng.expFloat() * 40
			id := i
			env.At(tt, func() {
				d.Submit(&Request{FileID: id, Size: int64(rng.intn(20)+1) * 50 * MB, Arrival: env.Now()})
			})
		}
		env.Run()
		end := env.Now()
		d.Finalize()
		var total, energy float64
		for s := State(0); s < numStates; s++ {
			total += d.StateDuration(s)
			energy += d.StateDuration(s) * p.Power(s)
		}
		if !almostEq(total, end, 1e-6) {
			t.Fatalf("seed %d: state durations sum %v != elapsed %v", seed, total, end)
		}
		if !almostEq(energy, d.Energy(), 1e-6) {
			t.Fatalf("seed %d: energy %v != breakdown %v", seed, d.Energy(), energy)
		}
		if d.Served() != 50 {
			t.Fatalf("seed %d: served %d want 50", seed, d.Served())
		}
	}
}

// Tiny deterministic rng to avoid importing math/rand in several tests.
type testRand struct{ state uint64 }

func newRand(seed int64) *testRand {
	return &testRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *testRand) next() uint64 {
	r.state = r.state*2862933555777941757 + 3037000493
	return r.state
}

func (r *testRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *testRand) expFloat() float64 { return -math.Log(1 - r.float()) }

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func BenchmarkDiskServiceLoop(b *testing.B) {
	env := sim.NewEnv()
	d := New(env, 0, DefaultParams(), 53.3)
	t := 0.0
	for i := 0; i < b.N; i++ {
		t += 2.0
		env.At(t, func() {
			d.Submit(&Request{FileID: i, Size: 100 * MB, Arrival: env.Now()})
		})
	}
	b.ResetTimer()
	env.Run()
}
