package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		e.At(at, func(now Time) {
			if now != at {
				t.Errorf("callback at %v fired with now=%v", at, now)
			}
			got = append(got, now)
		})
	}
	e.Run()
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of schedule order: %v", order)
		}
	}
}

func TestAfterAndDefer(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.At(50, func(now Time) {
		trace = append(trace, "a")
		e.Defer(func(Time) { trace = append(trace, "deferred") })
		e.After(10, func(now Time) {
			if now != 60 {
				t.Errorf("After(10) from t=50 fired at %v", now)
			}
			trace = append(trace, "b")
		})
	})
	e.At(50, func(Time) { trace = append(trace, "a2") })
	e.Run()
	want := []string{"a", "a2", "deferred", "b"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func(Time) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func(Time) {})
}

func TestRunUntilAdvancesClockAndLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func(Time) { fired++ })
	e.At(20, func(Time) { fired++ })
	e.At(30, func(Time) { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	e.RunFor(10)
	if fired != 3 || e.Now() != 30 {
		t.Fatalf("after RunFor(10): fired=%d now=%v", fired, e.Now())
	}
}

func TestRunUntilWithEmptyQueueAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(1234)
	if e.Now() != 1234 {
		t.Fatalf("Now() = %v, want 1234", e.Now())
	}
}

func TestStepReturnsFalseWhenDrained(t *testing.T) {
	e := NewEngine()
	e.At(1, func(Time) {})
	if !e.Step() {
		t.Fatal("Step() = false with a pending event")
	}
	if e.Step() {
		t.Fatal("Step() = true on an empty queue")
	}
}

func TestCascadedSchedulingFromCallbacks(t *testing.T) {
	e := NewEngine()
	depth := 0
	var grow func(now Time)
	grow = func(now Time) {
		depth++
		if depth < 100 {
			e.After(Microsecond, grow)
		}
	}
	e.At(0, grow)
	e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 99*Microsecond {
		t.Fatalf("Now() = %v, want 99µs", e.Now())
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func(Time) {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", e.Fired())
	}
}

// TestRandomScheduleOrdering drives the heap with a large randomized
// schedule and verifies the global ordering invariant: fire times are
// non-decreasing, and same-instant events preserve scheduling order.
func TestRandomScheduleOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	const n = 5000
	type stamp struct {
		at  Time
		seq int
	}
	var fired []stamp
	for i := 0; i < n; i++ {
		at := Time(rng.Intn(500)) // heavy collisions on purpose
		i := i
		e.At(at, func(now Time) { fired = append(fired, stamp{now, i}) })
	}
	e.Run()
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool {
		if fired[i].at != fired[j].at {
			return fired[i].at < fired[j].at
		}
		return fired[i].seq < fired[j].seq
	}) {
		t.Fatal("events fired out of (time, schedule) order")
	}
}

func TestMaxEventsBudgetPanicsOnRunaway(t *testing.T) {
	e := NewEngine()
	e.SetMaxEvents(50)
	// A mis-wired component that reschedules itself forever.
	var loop func(now Time)
	loop = func(now Time) { e.After(Microsecond, loop) }
	e.At(0, loop)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("runaway schedule did not panic under SetMaxEvents")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "event budget") {
			t.Fatalf("panic message %v does not mention the event budget", r)
		}
		if e.Fired() != 50 {
			t.Fatalf("Fired() = %d, want exactly the budget of 50", e.Fired())
		}
	}()
	e.Run()
}

func TestMaxEventsBudgetAllowsBoundedRuns(t *testing.T) {
	e := NewEngine()
	e.SetMaxEvents(100)
	fired := 0
	for i := 0; i < 100; i++ {
		e.At(Time(i), func(Time) { fired++ })
	}
	e.Run() // exactly at the budget: must complete without panicking
	if fired != 100 {
		t.Fatalf("fired = %d, want 100", fired)
	}
	// Removing the budget lifts the cap.
	e.SetMaxEvents(0)
	e.At(e.Now(), func(Time) { fired++ })
	e.Run()
	if fired != 101 {
		t.Fatalf("fired = %d after lifting budget, want 101", fired)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000µs"},
		{3 * Millisecond, "3.000ms"},
		{1500 * Millisecond, "1.500s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if s := (2 * Second).Seconds(); s != 2.0 {
		t.Errorf("Seconds() = %v, want 2", s)
	}
	if us := (3 * Microsecond).Micros(); us != 3.0 {
		t.Errorf("Micros() = %v, want 3", us)
	}
}

func TestProbeSamplesEveryNthEvent(t *testing.T) {
	e := NewEngine()
	type sample struct {
		at      Time
		pending int
	}
	var got []sample
	e.SetProbe(3, func(now Time, pending int) { got = append(got, sample{now, pending}) })
	for i := 0; i < 10; i++ {
		e.At(Time(i)*Microsecond, func(Time) {})
	}
	e.Run()
	// 10 events fire; the probe lands after events 3, 6 and 9 (1-indexed),
	// seeing the queue depth after each.
	want := []sample{{2 * Microsecond, 7}, {5 * Microsecond, 4}, {8 * Microsecond, 1}}
	if len(got) != len(want) {
		t.Fatalf("probe fired %d times, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestProbeClearedAndNilSafe(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.SetProbe(1, func(Time, int) { fired++ })
	e.SetProbe(0, nil) // clears
	e.At(0, func(Time) {})
	e.Run()
	if fired != 0 {
		t.Errorf("cleared probe fired %d times", fired)
	}
	// every == 0 with a non-nil fn must also disable, not divide by zero.
	e2 := NewEngine()
	e2.SetProbe(0, func(Time, int) { fired++ })
	e2.At(0, func(Time) {})
	e2.Run()
	if fired != 0 {
		t.Errorf("probe with every=0 fired %d times", fired)
	}
}
