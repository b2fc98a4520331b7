package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("Now()=%v want 0", env.Now())
	}
	if env.Pending() != 0 {
		t.Fatalf("Pending()=%d want 0", env.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var order []int
	env.Schedule(3.0, func() { order = append(order, 3) })
	env.Schedule(1.0, func() { order = append(order, 1) })
	env.Schedule(2.0, func() { order = append(order, 2) })
	env.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
	if env.Now() != 3.0 {
		t.Errorf("final clock=%v want 3.0", env.Now())
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	env := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		env.Schedule(1.0, func() { order = append(order, i) })
	}
	env.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	env := NewEnv()
	var times []Time
	env.Schedule(1.0, func() {
		times = append(times, env.Now())
		env.Schedule(0.5, func() {
			times = append(times, env.Now())
		})
	})
	env.Run()
	if len(times) != 2 || times[0] != 1.0 || times[1] != 1.5 {
		t.Fatalf("times=%v want [1 1.5]", times)
	}
}

func TestZeroDelayFiresAtSameTime(t *testing.T) {
	env := NewEnv()
	fired := false
	env.Schedule(2.0, func() {
		env.Schedule(0, func() {
			if env.Now() != 2.0 {
				t.Errorf("zero-delay event at t=%v want 2.0", env.Now())
			}
			fired = true
		})
	})
	env.Run()
	if !fired {
		t.Fatal("zero-delay event did not fire")
	}
}

func TestCancel(t *testing.T) {
	env := NewEnv()
	fired := false
	ev := env.Schedule(1.0, func() { fired = true })
	ev.Cancel()
	env.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() || ev.Fired() {
		t.Errorf("Canceled()=%v Fired()=%v want true,false", ev.Canceled(), ev.Fired())
	}
}

func TestCancelFromCallback(t *testing.T) {
	env := NewEnv()
	fired := false
	var target Event
	target = env.Schedule(2.0, func() { fired = true })
	env.Schedule(1.0, func() { target.Cancel() })
	env.Run()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	env := NewEnv()
	ev := env.Schedule(1.0, func() {})
	env.Run()
	if !ev.Fired() {
		t.Fatal("event did not fire")
	}
	ev.Cancel() // must not panic or change Fired
	if !ev.Fired() {
		t.Fatal("Fired() changed after post-hoc Cancel")
	}
}

func TestRunUntil(t *testing.T) {
	env := NewEnv()
	var fired []Time
	for _, d := range []Time{1, 2, 3, 4, 5} {
		d := d
		env.Schedule(d, func() { fired = append(fired, d) })
	}
	env.RunUntil(3.0)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3 (<=3.0)", len(fired))
	}
	if env.Now() != 3.0 {
		t.Fatalf("clock=%v want exactly 3.0", env.Now())
	}
	if env.Pending() != 2 {
		t.Fatalf("pending=%d want 2", env.Pending())
	}
	env.Run()
	if len(fired) != 5 {
		t.Fatalf("after Run fired=%d want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockPastLastEvent(t *testing.T) {
	env := NewEnv()
	env.Schedule(1.0, func() {})
	env.RunUntil(100.0)
	if env.Now() != 100.0 {
		t.Fatalf("clock=%v want 100.0", env.Now())
	}
}

func TestAtAbsoluteTime(t *testing.T) {
	env := NewEnv()
	var got Time = -1
	env.At(7.25, func() { got = env.Now() })
	env.Run()
	if got != 7.25 {
		t.Fatalf("event fired at %v want 7.25", got)
	}
}

func TestScheduleNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEnv().Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	env := NewEnv()
	env.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("At(past) did not panic")
			}
		}()
		env.At(1, func() {})
	})
	env.Run()
}

func TestStepReturnsFalseWhenDrained(t *testing.T) {
	env := NewEnv()
	env.Schedule(1, func() {})
	if !env.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	if env.Step() {
		t.Fatal("Step returned true on empty queue")
	}
}

func TestStepsCounterSkipsCancelled(t *testing.T) {
	env := NewEnv()
	env.Schedule(1, func() {})
	ev := env.Schedule(2, func() {})
	ev.Cancel()
	env.Schedule(3, func() {})
	env.Run()
	if env.Steps() != 2 {
		t.Fatalf("Steps()=%d want 2", env.Steps())
	}
}

// Property: any batch of events fires in nondecreasing time order and
// the clock never moves backwards.
func TestEventOrderProperty(t *testing.T) {
	prop := func(delaysRaw []uint16) bool {
		env := NewEnv()
		var fired []Time
		for _, d := range delaysRaw {
			env.Schedule(Time(d)/16.0, func() { fired = append(fired, env.Now()) })
		}
		env.Run()
		if len(fired) != len(delaysRaw) {
			return false
		}
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		// Every delay must be represented.
		want := make([]Time, len(delaysRaw))
		for i, d := range delaysRaw {
			want[i] = Time(d) / 16.0
		}
		sort.Float64s(want)
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset prevents exactly that subset from
// firing.
func TestCancelSubsetProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		env := NewEnv()
		firedCount := 0
		cancelled := 0
		events := make([]Event, int(n)+1)
		for i := range events {
			events[i] = env.Schedule(rng.Float64()*100, func() { firedCount++ })
		}
		for i := range events {
			if rng.Intn(2) == 0 {
				events[i].Cancel()
				cancelled++
			}
		}
		env.Run()
		return firedCount == len(events)-cancelled
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		env := NewEnv()
		rng := rand.New(rand.NewSource(42))
		var trace []int
		for i := 0; i < 200; i++ {
			i := i
			env.Schedule(rng.Float64()*10, func() {
				trace = append(trace, i)
				if rng.Intn(4) == 0 {
					j := i + 1000
					env.Schedule(rng.Float64(), func() { trace = append(trace, j) })
				}
			})
		}
		env.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestResourceImmediateAcquire(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 2)
	got := 0
	r.Acquire(func() { got++ })
	r.Acquire(func() { got++ })
	if got != 2 || r.InUse() != 2 {
		t.Fatalf("got=%d inUse=%d want 2,2", got, r.InUse())
	}
}

func TestResourceFIFOWaiters(t *testing.T) {
	env := NewEnv()
	r := NewResource(env, 1)
	var order []int
	r.Acquire(func() {})
	for i := 1; i <= 3; i++ {
		i := i
		r.Acquire(func() { order = append(order, i) })
	}
	if r.QueueLen() != 3 {
		t.Fatalf("queue=%d want 3", r.QueueLen())
	}
	r.Release() // waiter 1 acquires
	r.Release() // waiter 2
	r.Release() // waiter 3
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order=%v want %v", order, want)
		}
	}
	if r.PeakQueueLen() != 3 {
		t.Errorf("peak queue=%d want 3", r.PeakQueueLen())
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	NewResource(NewEnv(), 1).Release()
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 did not panic")
		}
	}()
	NewResource(NewEnv(), 0)
}

func BenchmarkEventLoop(b *testing.B) {
	env := NewEnv()
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			env.Schedule(1.0, step)
		}
	}
	env.Schedule(1.0, step)
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

func BenchmarkEventQueueChurn(b *testing.B) {
	env := NewEnv()
	rng := rand.New(rand.NewSource(3))
	// Keep ~1000 events pending while churning through b.N.
	for i := 0; i < 1000; i++ {
		env.Schedule(rng.Float64()*1000, func() {})
	}
	fired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for fired < b.N {
		if !env.Step() {
			break
		}
		fired++
		env.Schedule(rng.Float64()*1000, func() {})
	}
}

// Passed orders an unscheduled event at (t, seq) against the run
// position by the queue's own (at, seq) rule: inside a step, only
// same-time events with an earlier FIFO position have fired; after
// RunUntil, everything at the boundary has.
func TestPassed(t *testing.T) {
	env := NewEnv()
	early := env.ReserveSeqs(1) // position taken before the event below
	if env.Passed(0, early) {
		t.Error("an event at t=0 reads as fired before any step")
	}
	var early5, late5 bool
	env.At(5, func() {
		early5 = env.Passed(5, early)
		late5 = env.Passed(5, math.MaxUint64-1)
	})
	env.RunUntil(5)
	if !early5 || late5 {
		t.Errorf("inside the t=5 step: earlier position fired = %v, later = %v; want true, false", early5, late5)
	}
	if !env.Passed(5, math.MaxUint64-1) {
		t.Error("after RunUntil(5), an event at 5 reads as not fired")
	}
	if env.Passed(5.5, early) {
		t.Error("an event after the boundary reads as fired")
	}
}
