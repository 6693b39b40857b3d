// Package sim provides a deterministic discrete-event simulation kernel.
//
// All storage components in this repository (flash devices, RAID arrays,
// the GC-Steering controller, the reconstruction engine) are driven by a
// single Engine. The engine owns a monotonic clock measured in integer
// nanoseconds and a priority queue of events. Events scheduled for the same
// instant fire in the order they were scheduled, which makes every
// simulation run exactly reproducible for a given seed and input trace.
//
// The engine is intentionally single-threaded: determinism matters more to
// a simulator than parallel speedup inside one run. Parallelism belongs one
// level up, in the experiment harness, which runs many independent engines
// concurrently.
package sim

import (
	"fmt"
)

// Time is a simulated instant in nanoseconds since the start of the run.
type Time int64

// Common durations, usable as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// String renders a Time with an adaptive unit, for logs and tables.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-breaker: schedule order
	fn  func(now Time)
}

// Engine is a discrete-event simulation executive.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	events    eventQueue
	fired     uint64
	maxEvents uint64

	probe      func(now Time, pending int)
	probeEvery uint64

	joins FreeList[join] // recycled fan-in records (see Join)
}

// NewEngine returns an engine with its clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting to execute.
func (e *Engine) Pending() int { return e.events.len() }

// SetProbe installs an opt-in observability hook invoked every `every`
// fired events with the current clock and queue depth. The time-series
// recorder samples engine pressure through it. fn == nil (or every == 0)
// removes the probe; disabled runs pay only a nil check per step.
func (e *Engine) SetProbe(every uint64, fn func(now Time, pending int)) {
	if fn == nil || every == 0 {
		e.probe, e.probeEvery = nil, 0
		return
	}
	e.probe, e.probeEvery = fn, every
}

// SetMaxEvents installs an opt-in safety budget: once more than n events
// have fired, the next Step panics with a diagnostic instead of letting a
// mis-wired component that keeps rescheduling itself hang the run forever.
// n == 0 removes the budget (the default).
func (e *Engine) SetMaxEvents(n uint64) { e.maxEvents = n }

// At schedules fn to run at the absolute instant at. Scheduling in the past
// (at < Now) panics: it always indicates a bug in a component's timing math,
// and silently clamping would hide it.
func (e *Engine) At(at Time, fn func(now Time)) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func(now Time)) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Defer schedules fn to run at the current instant, after all callbacks
// already queued for this instant. It is the simulation analogue of
// "process this on the next tick of the event loop".
func (e *Engine) Defer(fn func(now Time)) { e.At(e.now, fn) }

// Step executes the single earliest pending event. It reports false when no
// events remain.
func (e *Engine) Step() bool {
	if e.events.len() == 0 {
		return false
	}
	if e.maxEvents > 0 && e.fired >= e.maxEvents {
		at, _ := e.events.peek()
		panic(fmt.Sprintf(
			"sim: event budget of %d exhausted at t=%v with %d events still pending (next at %v) — a component is likely rescheduling itself forever",
			e.maxEvents, e.now, e.events.len(), at))
	}
	ev := e.events.pop()
	e.now = ev.at
	e.fired++
	ev.fn(e.now)
	if e.probe != nil && e.fired%e.probeEvery == 0 {
		e.probe(e.now, e.events.len())
	}
	return true
}

// Run executes events until the queue is empty. It is the replay's
// innermost loop and a gcsvet hot-path root: everything it reaches is
// held allocation-free by the hotalloc analyzer.
//
//gcsvet:hot
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline Time) {
	for {
		at, ok := e.events.peek()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for d nanoseconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
