package rebuild

import (
	"slices"

	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// Resyncer is the post-crash parity resync: the mount-time walker that
// re-establishes stripe consistency after a power loss. It paces like the
// patrol scrub (one stripe per interval) but differs in scope and verdict:
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
	walker
	dirty   bool  // the stripe in flight needs repair
	torn    []int // members whose unit fails its checksum
	targets []int // members the repair rewrites
	stats   ResyncStats

	// Inconsistent, when non-nil, reports the ground truth for stale-leg
	// stripes — writes the cut left half-applied without tearing any page,
	// invisible to per-unit CRC checks but caught by parity recompute.
	Inconsistent func(st int) bool
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

// NewResync prepares a resync walk over the given stripes (mount-time
// dirty list, or every stripe for the journal-off full walk) at a
// bandwidth cap of mbps MB/s. An empty stripe list completes on Start.
func NewResync(eng *sim.Engine, arr *raid.Array, mbps float64, pageSize int, stripes []int) (*Resyncer, error) {
	r := &Resyncer{}
	lay := arr.Layout()
	if err := r.init("resync", eng, arr, r, lay.UnitPages*lay.Disks, mbps, pageSize, len(stripes), stripes); err != nil {
		return nil, err
	}
	return r, nil
}

// Stats returns a snapshot of the run statistics.
func (r *Resyncer) Stats() ResyncStats { return r.stats }

func (r *Resyncer) begin(now sim.Time) { r.stats.StartedAt = now }

func (r *Resyncer) end(now sim.Time) {
	r.stats.FinishedAt = now
	if r.Trace.Enabled() {
		r.Trace.Emit(now, obs.Event{Kind: obs.KResyncDone, Dev: -1, Page: -1,
			Aux: r.stats.StripesWalked, Aux2: r.stats.Inconsistent})
	}
}

// hold never defers: the resync is what stands between the remount and a
// consistent array.
func (r *Resyncer) hold(sim.Time, int) bool { return false }

// visit decides the stripe's consistency. Torn members — units whose
// pages were mid-program at the cut — now fail their checksum; they are
// probed before the reads (side-effect free), so the repair can target
// exactly these units.
func (r *Resyncer) visit(now sim.Time) {
	r.stats.StripesWalked++
	disks := r.arr.Disks()
	pages := r.unitPages()
	r.torn = r.torn[:0]
	for _, d := range r.sources {
		if m, ok := disks[d].(media); ok && m.VerifyError(now, r.base, pages) {
			r.torn = append(r.torn, d)
		}
	}
	r.dirty = len(r.torn) > 0 || (r.Inconsistent != nil && r.Inconsistent(r.st))
	if r.Trace.Enabled() {
		found := int64(0)
		if r.dirty {
			found = 1
		}
		r.Trace.Emit(now, obs.Event{Kind: obs.KResyncStripe, Dev: -1,
			Page: int64(r.base), Pages: int32(pages), Aux: int64(r.st), Aux2: found})
	}
	r.stats.PagesRead += r.pagesRead()
}

// readDone re-establishes the stripe, if the crash left it inconsistent:
// torn units are rewritten in place (clearing the CRC defects), and the
// parity units are recomputed from the data — the write-hole closure
// itself.
func (r *Resyncer) readDone(now sim.Time) {
	if !r.dirty {
		r.pace(now)
		return
	}
	r.stats.Inconsistent++
	lay := r.arr.Layout()
	disks := r.arr.Disks()

	// Writes: every torn unit, plus the surviving parity units (always
	// rewritten — a half-applied write means parity no longer matches the
	// data even when every page has a valid CRC).
	r.targets = append(r.targets[:0], r.torn...)
	for _, d := range [2]int{lay.ParityDisk(r.st), lay.QDisk(r.st)} {
		if d >= 0 && r.arr.Alive(d) && !slices.Contains(r.targets, d) {
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
			m.RepairPages(r.base, lay.UnitPages)
		}
		r.stats.PagesWritten += int64(lay.UnitPages)
		must(disks[d].Write(now, r.base, lay.UnitPages, cb))
	}
	r.stats.TornUnitsRepaired += int64(len(r.torn))
}
