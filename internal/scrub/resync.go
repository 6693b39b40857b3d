package scrub

import (
	"fmt"

	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/rebuild"
	"gcsteering/internal/sim"
)

// Resyncer is the post-crash parity resync: the mount-time walker that
// re-establishes stripe consistency after a power loss. It reuses the
// scrubber's bandwidth pacing but differs in scope and verdict:
//
//   - With the intent journal on, it walks only the stripes the journal
//     held open at the cut — a bounded pass that finishes before the array
//     has to serve (or quickly after).
//   - With the journal off, it must walk every stripe (the full-scrub
//     window of vulnerability the journal closes).
//
// A stripe is inconsistent when the crash left its legs disagreeing:
// either a page program was torn mid-flight (the unit now fails its
// CRC32-C — VerifyError) or some legs persisted while others never
// started (detectable only by recomputing parity, which the caller models
// as ground-truth set membership). Repair rewrites the stripe's parity
// from the surviving data and clears the torn-page defects; unlike patrol
// scrub there is no redundancy budget to respect, because recomputing
// parity from data needs no redundancy at all.
type Resyncer struct {
	eng *sim.Engine
	arr *raid.Array
	// interval is the pacing gap between stripe walks (same bandwidth
	// model as the patrol scrubber).
	interval sim.Time

	stripes []int // walk order
	next    int
	running bool
	stats   ResyncStats

	// The in-flight stripe, one record for the whole walk (stripes are
	// strictly serial, as in Scrubber): the callbacks are bound once in
	// NewResync and the member lists are resliced per stripe.
	st           int                // stripe being walked
	dirty        bool               // the stripe needs repair
	earliestNext sim.Time           // pacing floor for the next stripe
	sources      []int              // surviving members read
	torn         []int              // members whose unit fails its checksum
	targets      []int              // members the repair rewrites
	walk         func(now sim.Time) // r.step
	read         func(now sim.Time) // r.readDone, joined over the member reads
	paced        func(now sim.Time) // r.pace, once the stripe's I/O is done

	// Inconsistent, when non-nil, reports the ground truth for stale-leg
	// stripes — writes the cut left half-applied without tearing any page,
	// invisible to per-unit CRC checks but caught by parity recompute.
	Inconsistent func(st int) bool

	// OnComplete, when non-nil, fires once when the walk finishes.
	OnComplete func(now sim.Time)

	// Trace, when non-nil, receives per-stripe resync progress events.
	Trace *obs.Tracer
}

// ResyncStats describes one resync run.
type ResyncStats struct {
	StripesWalked int64
	// Inconsistent counts stripes found torn or half-written and repaired.
	Inconsistent int64
	// TornUnitsRepaired counts member units whose CRC failed (torn page
	// programs) and were rewritten.
	TornUnitsRepaired int64
	PagesRead         int64
	PagesWritten      int64
	StartedAt         sim.Time
	FinishedAt        sim.Time
}

// NewResync prepares a resync walker over the given stripes (mount-time
// dirty list, or every stripe for the journal-off full walk). A nil or
// empty stripe list completes immediately on Start.
func NewResync(eng *sim.Engine, arr *raid.Array, mbps float64, pageSize int, stripes []int) (*Resyncer, error) {
	if mbps <= 0 {
		return nil, fmt.Errorf("resync: bandwidth %v must be positive", mbps)
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("resync: page size %d must be positive", pageSize)
	}
	lay := arr.Layout()
	r := &Resyncer{
		eng:      eng,
		arr:      arr,
		interval: rebuild.PaceInterval(int64(lay.UnitPages*pageSize*lay.Disks), mbps),
		stripes:  stripes,
	}
	r.walk, r.read, r.paced = r.step, r.readDone, r.pace
	return r, nil
}

// Stats returns a snapshot of the run statistics.
func (r *Resyncer) Stats() ResyncStats { return r.stats }

// Running reports whether the resync is in flight.
func (r *Resyncer) Running() bool { return r.running }

// Start begins the walk. Call once, before running the engine.
func (r *Resyncer) Start(now sim.Time) {
	if r.running {
		return
	}
	r.running = true
	r.stats.StartedAt = now
	r.step(now)
}

func (r *Resyncer) finish(now sim.Time) {
	r.running = false
	r.stats.FinishedAt = now
	if r.Trace.Enabled() {
		r.Trace.Emit(now, obs.Event{Kind: obs.KResyncDone, Dev: -1, Page: -1,
			Aux: r.stats.StripesWalked, Aux2: r.stats.Inconsistent})
	}
	if r.OnComplete != nil {
		r.OnComplete(now)
	}
}

// step walks one stripe: read the unit from every surviving member (paced
// by the bandwidth cap), decide consistency, and rewrite parity if the
// crash left the stripe torn or half-written.
func (r *Resyncer) step(now sim.Time) {
	if r.next >= len(r.stripes) {
		r.finish(now)
		return
	}
	lay := r.arr.Layout()
	st := r.stripes[r.next]
	r.next++
	r.stats.StripesWalked++
	base := lay.UnitPage(st)
	disks := r.arr.Disks()

	// Torn members: units whose pages were mid-program at the cut now fail
	// their checksum. Probed before the reads (side-effect free), so the
	// repair can target exactly these units.
	r.st, r.sources, r.torn = st, r.sources[:0], r.torn[:0]
	for d := 0; d < lay.Disks; d++ {
		if !r.arr.Alive(d) {
			continue
		}
		r.sources = append(r.sources, d)
		if m, ok := disks[d].(media); ok && m.VerifyError(now, base, lay.UnitPages) {
			r.torn = append(r.torn, d)
		}
	}
	r.dirty = len(r.torn) > 0 || (r.Inconsistent != nil && r.Inconsistent(st))

	r.earliestNext = now + r.interval
	if r.Trace.Enabled() {
		found := int64(0)
		if r.dirty {
			found = 1
		}
		r.Trace.Emit(now, obs.Event{Kind: obs.KResyncStripe, Dev: -1,
			Page: int64(base), Pages: int32(lay.UnitPages), Aux: int64(st), Aux2: found})
	}
	if len(r.sources) == 0 {
		r.pace(now)
		return
	}
	onRead := r.eng.Join(len(r.sources), r.read)
	for _, d := range r.sources {
		r.stats.PagesRead += int64(lay.UnitPages)
		must(disks[d].Read(now, base, lay.UnitPages, onRead))
	}
}

// pace schedules the next stripe no earlier than the bandwidth cap allows.
func (r *Resyncer) pace(now sim.Time) { r.eng.At(max(now, r.earliestNext), r.walk) }

// readDone repairs the stripe, if the crash left it inconsistent, once
// every member read is done.
func (r *Resyncer) readDone(now sim.Time) {
	if !r.dirty {
		r.pace(now)
		return
	}
	r.repair(now)
}

// repair re-establishes the in-flight stripe: torn units are rewritten in
// place (clearing the CRC defects), and the parity units are recomputed
// from the data — the write-hole closure itself.
func (r *Resyncer) repair(now sim.Time) {
	r.stats.Inconsistent++
	lay := r.arr.Layout()
	base := lay.UnitPage(r.st)
	disks := r.arr.Disks()

	// Writes: every torn unit, plus the surviving parity units (always
	// rewritten — a half-applied write means parity no longer matches the
	// data even when every page has a valid CRC).
	r.targets = append(r.targets[:0], r.torn...)
	for _, d := range [2]int{lay.ParityDisk(r.st), lay.QDisk(r.st)} {
		if d < 0 || !r.arr.Alive(d) {
			continue
		}
		seen := false
		for _, t := range r.targets {
			if t == d {
				seen = true
				break
			}
		}
		if !seen {
			r.targets = append(r.targets, d)
		}
	}
	if len(r.targets) == 0 {
		r.pace(now)
		return
	}
	cb := r.eng.Join(len(r.targets), r.paced)
	for _, d := range r.targets {
		if m, ok := disks[d].(media); ok {
			m.RepairPages(base, lay.UnitPages)
		}
		r.stats.PagesWritten += int64(lay.UnitPages)
		must(disks[d].Write(now, base, lay.UnitPages, cb))
	}
	r.stats.TornUnitsRepaired += int64(len(r.torn))
}
