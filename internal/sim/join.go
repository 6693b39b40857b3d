package sim

import "fmt"

// Horizon is the latest instant the simulator's timing math may reach:
// 2^62 ns (about 146 years), which leaves as much headroom again before
// Time overflows. Accepted durations stay below it; saturating delays
// stop at it.
const Horizon Time = 1 << 62

// FreeList recycles records of type T for a single-threaded owner, as a
// deterministic stack rather than a sync.Pool. A record binds its
// completion callbacks (method values) once, when Get reports it fresh, so
// steady-state reuse allocates nothing.
type FreeList[T any] struct{ free []*T }

// Get pops a recycled record, or returns a new zero one with fresh set.
func (l *FreeList[T]) Get() (x *T, fresh bool) {
	if n := len(l.free); n > 0 {
		x, l.free = l.free[n-1], l.free[:n-1]
		return x, false
	}
	return l.grow(), true
}

// Put returns x for reuse; the caller keeps no reference to it.
func (l *FreeList[T]) Put(x *T) { l.free = append(l.free, x) }

// grow allocates a record on a miss.
//
// gcsvet: a list misses only while it grows to its peak occupancy, so
// growth is a cold boundary for hotalloc.
//
//gcsvet:cold
func (l *FreeList[T]) grow() *T { return new(T) }

// join is one pooled fan-in.
type join struct {
	eng    *Engine
	remain int
	done   func(now Time)
	arrive func(now Time) // j.call, bound once
}

// Join returns a completion callback that fires done on its n-th call with
// that call's instant: the slowest-leg barrier of every fan-out. It
// returns nil when done is nil (legs then carry no callback) and panics
// when n <= 0 or when called past n. The record goes back on the engine's
// free list before done runs, so the callback must not be kept past its
// n-th call. Arrivals schedule no events.
func (e *Engine) Join(n int, done func(now Time)) func(now Time) {
	if n <= 0 {
		panic(fmt.Sprintf("sim: join of %d arrivals", n))
	}
	if done == nil {
		return nil
	}
	j, fresh := e.joins.Get()
	if fresh {
		j.eng, j.arrive = e, j.call
	}
	j.remain, j.done = n, done
	return j.arrive
}

func (j *join) call(now Time) {
	if j.remain <= 0 {
		panic("sim: join called past its arrival count")
	}
	if j.remain--; j.remain > 0 {
		return
	}
	done := j.done
	j.done = nil
	j.eng.joins.Put(j)
	done(now)
}
