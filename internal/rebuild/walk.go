package rebuild

import (
	"fmt"

	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// stripeMode is the per-stripe decision of a walk — the one thing that
// tells a rebuild, a patrol scrub and a resync apart. The walker calls
// begin once at Start; per stripe, hold before the cursor moves, visit
// once w.st, w.base and w.sources are set, and readDone when every
// survivor read is done; and end once, after the last stripe.
type stripeMode interface {
	begin(now sim.Time)
	// hold reports that stripe st must wait; a holding mode has already
	// scheduled the walk's retry.
	hold(now sim.Time, st int) bool
	visit(now sim.Time)
	// readDone decides and issues the stripe's writes; the mode paces the
	// next stripe once they are done.
	readDone(now sim.Time)
	end(now sim.Time)
}

// walker is the paced stripe walk the three modes share: it owns the
// stripe cursor, the survivor reads and the bandwidth pacing. Each stripe
// starts no earlier than the previous one plus the pacing interval: the
// walk never runs ahead of its cap, and falls behind it only when a
// stripe's I/O, or a mode's hold, takes longer.
//
// Stripes are strictly serial (Start is guarded by running and each
// stripe schedules the next), so one record serves the whole walk: the
// callbacks are bound once at construction and the member list is
// resliced per stripe, so a stripe allocates nothing.
type walker struct {
	eng      *sim.Engine
	arr      *raid.Array
	mode     stripeMode
	interval sim.Time // pacing gap between stripe starts
	n        int      // stripes in the walk
	order    []int    // stripes to walk, in order; nil walks 0..n-1
	next     int      // cursor: index of the next stripe in the walk
	running  bool

	st           int                // stripe in flight
	base         int                // its first page on every member
	earliestNext sim.Time           // pacing floor for the next stripe
	sources      []int              // surviving members read for the stripe
	step         func(now sim.Time) // w.walkStripe
	read         func(now sim.Time) // mode.readDone, joined over the reads
	paced        func(now sim.Time) // w.pace, once the stripe's I/O is done

	// OnComplete, when non-nil, fires once after the last stripe.
	OnComplete func(now sim.Time)

	// Trace, when non-nil, receives the mode's lifecycle events.
	Trace *obs.Tracer
}

// init binds the walker to its mode. stepPages is what one step moves at
// the cap of mbps MB/s (one unit for rebuild, one stripe for scrub and
// resync). The walk visits n stripes: order[0..n), or 0..n-1 when order
// is nil.
func (w *walker) init(name string, eng *sim.Engine, arr *raid.Array, mode stripeMode,
	stepPages int, mbps float64, pageSize int, n int, order []int) error {
	if mbps <= 0 {
		return fmt.Errorf("%s: bandwidth %v must be positive", name, mbps)
	}
	if pageSize <= 0 {
		return fmt.Errorf("%s: page size %d must be positive", name, pageSize)
	}
	w.eng, w.arr, w.mode, w.n, w.order = eng, arr, mode, n, order
	w.interval = PaceInterval(int64(stepPages*pageSize), mbps)
	w.step, w.read, w.paced = w.walkStripe, mode.readDone, w.pace
	return nil
}

// Running reports whether the walk is in flight.
func (w *walker) Running() bool { return w.running }

// Start begins the walk. A second call while it runs does nothing.
func (w *walker) Start(now sim.Time) {
	if w.running {
		return
	}
	w.running = true
	w.mode.begin(now)
	w.walkStripe(now)
}

// walkStripe moves the cursor onto the next stripe the mode does not
// hold, lists the surviving members, lets the mode probe them, and reads
// the stripe's unit from each (directly — background I/O is never
// steered). After the last stripe it closes the walk.
func (w *walker) walkStripe(now sim.Time) {
	if w.next >= w.n {
		w.running = false
		w.mode.end(now)
		if w.OnComplete != nil {
			w.OnComplete(now)
		}
		return
	}
	st := w.next
	if w.order != nil {
		st = w.order[w.next]
	}
	if w.mode.hold(now, st) {
		return
	}
	w.next++
	lay := w.arr.Layout()
	w.st, w.base = st, lay.UnitPage(st)
	w.sources = w.sources[:0]
	for d := 0; d < lay.Disks; d++ {
		if w.arr.Alive(d) {
			w.sources = append(w.sources, d)
		}
	}
	w.mode.visit(now)
	w.earliestNext = now + w.interval
	if len(w.sources) == 0 {
		w.pace(now)
		return
	}
	disks := w.arr.Disks()
	onRead := w.eng.Join(len(w.sources), w.read)
	for _, d := range w.sources {
		must(disks[d].Read(now, w.base, lay.UnitPages, onRead))
	}
}

// pace schedules the next stripe no earlier than the bandwidth cap allows.
func (w *walker) pace(now sim.Time) { w.eng.At(max(now, w.earliestNext), w.step) }

// unitPages is the size of one member's unit of a stripe.
func (w *walker) unitPages() int { return w.arr.Layout().UnitPages }

// pagesRead is what the stripe in flight reads: one unit per survivor.
func (w *walker) pagesRead() int64 { return int64(len(w.sources) * w.unitPages()) }
