package sim

import "testing"

func TestJoinFiresOnLastArrival(t *testing.T) {
	e := NewEngine()
	var fired []Time
	cb := e.Join(3, func(now Time) { fired = append(fired, now) })
	cb(5)
	cb(9)
	if len(fired) != 0 {
		t.Fatalf("fired after 2 of 3 arrivals: %v", fired)
	}
	cb(7)
	if len(fired) != 1 || fired[0] != 7 {
		t.Fatalf("fired %v, want once with the last arrival's instant 7", fired)
	}
}

func TestJoinNilDoneIsNil(t *testing.T) {
	if cb := NewEngine().Join(2, nil); cb != nil {
		t.Fatal("Join with nil done returned a callback")
	}
}

func TestJoinPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	mustPanic("n = 0", func() { e.Join(0, func(Time) {}) })
	mustPanic("n < 0", func() { e.Join(-1, func(Time) {}) })
	cb := e.Join(1, func(Time) {})
	cb(0)
	mustPanic("an arrival past n", func() { cb(0) })
}

// TestJoinRecyclesRecords pins the reuse contract: a record goes back on
// the free list before done runs, so a fan-in opened from inside done gets
// the same record, and steady-state joins allocate nothing.
func TestJoinRecyclesRecords(t *testing.T) {
	e := NewEngine()
	var inner func(Time)
	outer := e.Join(1, func(Time) { inner = e.Join(1, func(Time) {}) })
	outer(0)
	if inner == nil {
		t.Fatal("done did not run")
	}
	if len(e.joins.free) != 0 {
		t.Fatalf("%d records free while one is in use, want the released record reused", len(e.joins.free))
	}
	inner(0)

	done := func(Time) {}
	if n := testing.AllocsPerRun(100, func() {
		a := e.Join(2, done)
		b := e.Join(3, done)
		a(1)
		b(1)
		b(2)
		a(2)
		b(3)
	}); n != 0 {
		t.Fatalf("steady-state Join allocates %v times per run, want 0", n)
	}
}
