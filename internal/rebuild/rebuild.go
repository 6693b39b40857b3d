// Package rebuild implements the simulator's bandwidth-capped background
// stripe walks, the three modes Linux MD runs in one md_do_sync thread:
//
//   - Rebuilder: the stripe-sequential reconstruction of a failed disk
//     (favouring the rebuild as the paper observed), into either of the
//     paper's §III-D replacement targets — a newly added spare SSD, or the
//     reserved space of the surviving members written in parallel
//     (GC-Steering's parallel reconstruction workflow);
//   - Scrubber: the patrol scrub, which verifies every unit against the
//     persistent defect state and repairs bad ones from redundancy;
//   - Resyncer: the post-crash parity resync that closes the write hole.
//
// All three share one paced walker (walk.go) and differ only in their
// per-stripe decision. Everything is driven by the simulation engine, so a
// run with background walks is exactly as reproducible as one without.
package rebuild

import (
	"fmt"
	"math"

	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// PaceInterval returns the gap between transfers of the given size that
// holds a background stream to a bandwidth cap: bytes at mbps MB/s. It is
// the pacing model of the walker that rebuild, patrol scrub and post-crash
// resync share, and of the cluster layer's copy jobs and resync, so every
// bandwidth-capped background stream in the simulator paces identically.
// Gaps saturate at sim.Horizon; CheckPace rejects the caps that would
// reach it.
func PaceInterval(bytes int64, mbps float64) sim.Time {
	return sim.Time(min(paceNs(bytes, mbps), float64(sim.Horizon)))
}

// CheckPace validates a bandwidth cap (MB/s) for transfers of the given
// size: it must be finite, and a positive cap must pace them at a gap
// below sim.Horizon. Caps <= 0 mean "off" or "default" and pass.
func CheckPace(bytes int64, mbps float64) error {
	if math.IsNaN(mbps) || math.IsInf(mbps, 0) {
		return fmt.Errorf("%v MB/s is not finite", mbps)
	}
	if mbps > 0 && !(paceNs(bytes, mbps) < float64(sim.Horizon)) {
		return fmt.Errorf("%v MB/s paces %d-byte transfers past the simulation horizon %v", mbps, bytes, sim.Horizon)
	}
	return nil
}

func paceNs(bytes int64, mbps float64) float64 {
	return float64(bytes) / (mbps * 1e6) * float64(sim.Second)
}

// must panics on an I/O error from a member disk: walk ranges are derived
// from the validated layout and checked sink geometry, so an error here is
// an internal invariant violation, not bad input.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Sink receives the rebuilt units of the failed disk.
type Sink interface {
	// Name identifies the target ("Spare" or "Reserved").
	Name() string
	// WriteUnit stores pages rebuilt pages whose home is the failed disk's
	// range [page, page+pages).
	WriteUnit(now sim.Time, page, pages int, done func(now sim.Time))
}

// SpareSink writes rebuilt units to a dedicated replacement SSD at their
// home offsets — the traditional workflow, whose write bandwidth bottleneck
// on the single replacement the paper calls out (§II-B).
type SpareSink struct {
	Disk raid.Disk
}

// Name implements Sink.
func (s *SpareSink) Name() string { return "Spare" }

// WriteUnit implements Sink.
func (s *SpareSink) WriteUnit(now sim.Time, page, pages int, done func(sim.Time)) {
	must(s.Disk.Write(now, page, pages, done))
}

// ReservedSink spreads rebuilt units round-robin across the reserved space
// of the surviving members, so reconstruction writes proceed in parallel on
// every survivor instead of serializing on one replacement (§III-D's
// parallel reconstruction workflow).
type ReservedSink struct {
	survivors []raid.Disk
	base      int // first reserved page on each survivor
	cursor    []int
	capacity  int // reserved pages per survivor
	next      int
}

// NewReservedSink builds a sink over the survivors' reserved regions
// ([base, base+capacity) on each).
func NewReservedSink(survivors []raid.Disk, base, capacity int) (*ReservedSink, error) {
	if len(survivors) == 0 {
		return nil, fmt.Errorf("rebuild: no survivors")
	}
	for i, d := range survivors {
		if d.LogicalPages() < base+capacity {
			return nil, fmt.Errorf("rebuild: survivor %d lacks reserved space", i)
		}
	}
	return &ReservedSink{
		survivors: survivors,
		base:      base,
		cursor:    make([]int, len(survivors)),
		capacity:  capacity,
	}, nil
}

// Name implements Sink.
func (s *ReservedSink) Name() string { return "Reserved" }

// WriteUnit implements Sink.
func (s *ReservedSink) WriteUnit(now sim.Time, page, pages int, done func(sim.Time)) {
	// Pick the next survivor with room; wrap the cursor when the region
	// fills (older rebuilt data would be migrated off to a real spare in a
	// full system; for the simulation the region is sized to fit).
	for i := 0; i < len(s.survivors); i++ {
		d := s.next
		s.next = (s.next + 1) % len(s.survivors)
		if s.cursor[d]+pages <= s.capacity {
			off := s.base + s.cursor[d]
			s.cursor[d] += pages
			must(s.survivors[d].Write(now, off, pages, done))
			return
		}
	}
	// All regions full: wrap around (overwrite the oldest rebuilt data).
	d := s.next
	s.next = (s.next + 1) % len(s.survivors)
	s.cursor[d] = pages
	must(s.survivors[d].Write(now, s.base, pages, done))
}

// Stats describes a reconstruction run.
type Stats struct {
	UnitsRebuilt int64
	PagesRead    int64
	PagesWritten int64
	StartedAt    sim.Time
	FinishedAt   sim.Time
	// UREs counts survivor reads that hit an unrecoverable read error
	// during the rebuild; UREsRepaired the subset covered by spare
	// redundancy (RAID6 rebuilding one disk still has a parity to spare).
	// DataLossUnits counts units whose errors exceeded the remaining
	// redundancy — the survivors were the last copy, so the regenerated
	// unit is garbage (the paper's §III-D window-of-vulnerability risk).
	UREs          int64
	UREsRepaired  int64
	DataLossUnits int64
}

// Rebuilder drives the reconstruction of one failed disk: per stripe it
// reads the unit of every survivor and writes the regenerated unit to the
// sink, paced at one unit per interval.
type Rebuilder struct {
	walker
	sink    Sink
	failed  int
	stats   Stats
	written func(now sim.Time) // r.unitDone, on the sink write's completion
}

// New prepares a rebuild of the array's failed disk into sink at the given
// bandwidth cap in MB/s (the paper's MD configuration caps at 10 MB/s and
// always runs at the cap).
func New(eng *sim.Engine, arr *raid.Array, sink Sink, bandwidthMBps float64, pageSize int) (*Rebuilder, error) {
	if !arr.Degraded() {
		return nil, fmt.Errorf("rebuild: array is not degraded")
	}
	r := &Rebuilder{sink: sink, failed: arr.Failed()}
	lay := arr.Layout()
	if err := r.init("rebuild", eng, arr, r, lay.UnitPages, bandwidthMBps, pageSize, lay.Stripes(), nil); err != nil {
		return nil, err
	}
	r.written = r.unitDone
	return r, nil
}

// Stats returns a snapshot of the run statistics.
func (r *Rebuilder) Stats() Stats { return r.stats }

func (r *Rebuilder) begin(now sim.Time) {
	r.stats.StartedAt = now
	if r.Trace.Enabled() {
		r.Trace.Emit(now, obs.Event{Kind: obs.KRebuildStart, Dev: int32(r.failed),
			Page: -1, Aux: int64(r.n)})
	}
}

func (r *Rebuilder) end(now sim.Time) {
	r.stats.FinishedAt = now
	if r.Trace.Enabled() {
		r.Trace.Emit(now, obs.Event{Kind: obs.KRebuildDone, Dev: int32(r.failed),
			Page: -1, Aux: int64(now - r.stats.StartedAt)})
	}
}

// hold never defers: the paper's MD rebuild always runs at its cap.
func (r *Rebuilder) hold(sim.Time, int) bool { return false }

// visit charges the survivor reads. Members that fail mid-rebuild (a
// second failure the layout tolerates) have dropped out of the sources;
// latent sector errors on the survivors consume spare redundancy, and past
// the last redundant copy they turn the unit into a data-loss event.
func (r *Rebuilder) visit(now sim.Time) {
	disks := r.arr.Disks()
	errs := 0
	for _, d := range r.sources {
		if f, ok := disks[d].(raid.Faulty); ok && f.ReadError(now, r.base, r.unitPages()) {
			errs++
		}
	}
	if errs > 0 {
		r.stats.UREs += int64(errs)
		if errs <= r.arr.SpareRedundancy() {
			r.stats.UREsRepaired += int64(errs)
		} else {
			r.stats.DataLossUnits++
		}
	}
	r.stats.PagesRead += r.pagesRead()
}

// readDone writes the regenerated unit once every survivor read is done.
func (r *Rebuilder) readDone(now sim.Time) {
	r.sink.WriteUnit(now, r.base, r.unitPages(), r.written)
}

// unitDone accounts the written unit and paces the next one.
func (r *Rebuilder) unitDone(now sim.Time) {
	pages := r.unitPages()
	r.stats.UnitsRebuilt++
	r.stats.PagesWritten += int64(pages)
	if r.Trace.Enabled() {
		r.Trace.Emit(now, obs.Event{Kind: obs.KRebuildUnit, Dev: int32(r.failed),
			Page: int64(r.base), Pages: int32(pages),
			Aux: r.stats.UnitsRebuilt, Aux2: int64(r.n)})
	}
	r.pace(now)
}
