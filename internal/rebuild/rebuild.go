// Package rebuild implements RAID failure recovery for the simulator: the
// stripe-sequential reconstruction process of Linux MD (bandwidth-capped,
// favouring the rebuild as the paper observed), with the two replacement
// targets of the paper's §III-D — a newly added spare SSD, or the reserved
// space of the surviving members written in parallel (GC-Steering's
// parallel reconstruction workflow).
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
// the pacing model of the stripe-sequential rebuild below, shared with the
// patrol scrub, the post-crash resync and the cluster layer's copy jobs and
// resync so every bandwidth-capped background stream in the simulator
// paces identically. Gaps saturate at sim.Horizon; CheckPace rejects the
// caps that would reach it.
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

// must panics on an I/O error from a member disk: rebuild ranges are
// derived from the validated layout and checked sink geometry, so an error
// here is an internal invariant violation, not bad input.
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

// Rebuilder drives the reconstruction of one failed disk.
type Rebuilder struct {
	eng  *sim.Engine
	arr  *raid.Array
	sink Sink
	// interval is the pacing gap between unit rebuilds enforcing the
	// bandwidth cap.
	interval sim.Time

	failed  int
	stripes int
	nextSt  int
	running bool
	stats   Stats

	// The in-flight unit. Units are strictly serial (Start is guarded by
	// running and each unit schedules the next), so one record serves the
	// whole run: the callbacks are bound once in New and sources is
	// resliced per unit, so a unit allocates nothing.
	base         int                // first page of the unit being rebuilt
	earliestNext sim.Time           // pacing floor for the next unit
	sources      []int              // surviving members read for the unit
	step         func(now sim.Time) // r.rebuildUnit
	read         func(now sim.Time) // r.writeUnit, joined over the survivor reads
	written      func(now sim.Time) // r.unitDone, on the sink write's completion

	// OnComplete, when non-nil, fires once after the last unit is written.
	OnComplete func(now sim.Time)

	// Trace, when non-nil, receives rebuild lifecycle events (start, one
	// event per rebuilt unit, done).
	Trace *obs.Tracer
}

// New prepares a rebuild of the array's failed disk into sink at the given
// bandwidth cap in MB/s (the paper's MD configuration caps at 10 MB/s and
// always runs at the cap).
func New(eng *sim.Engine, arr *raid.Array, sink Sink, bandwidthMBps float64, pageSize int) (*Rebuilder, error) {
	if !arr.Degraded() {
		return nil, fmt.Errorf("rebuild: array is not degraded")
	}
	if bandwidthMBps <= 0 {
		return nil, fmt.Errorf("rebuild: bandwidth %v must be positive", bandwidthMBps)
	}
	lay := arr.Layout()
	interval := PaceInterval(int64(lay.UnitPages*pageSize), bandwidthMBps)
	r := &Rebuilder{
		eng:      eng,
		arr:      arr,
		sink:     sink,
		interval: interval,
		failed:   arr.Failed(),
		stripes:  lay.Stripes(),
	}
	r.step, r.read, r.written = r.rebuildUnit, r.writeUnit, r.unitDone
	return r, nil
}

// Stats returns a snapshot of the run statistics.
func (r *Rebuilder) Stats() Stats { return r.stats }

// Progress returns the fraction of stripes rebuilt.
func (r *Rebuilder) Progress() float64 {
	if r.stripes == 0 {
		return 1
	}
	return float64(r.nextSt) / float64(r.stripes)
}

// Running reports whether the rebuild is in flight.
func (r *Rebuilder) Running() bool { return r.running }

// Start begins the stripe-sequential rebuild.
func (r *Rebuilder) Start(now sim.Time) {
	if r.running {
		return
	}
	r.running = true
	r.stats.StartedAt = now
	if r.Trace.Enabled() {
		r.Trace.Emit(now, obs.Event{Kind: obs.KRebuildStart, Dev: int32(r.failed),
			Page: -1, Aux: int64(r.stripes)})
	}
	r.rebuildUnit(now)
}

// rebuildUnit reconstructs the failed disk's unit of stripe r.nextSt: it
// reads the stripe's units from every survivor (directly — rebuild I/O is
// never steered), then writes the regenerated unit to the sink, then
// schedules the next unit no earlier than the pacing interval allows.
// Members that fail mid-rebuild (a second failure the layout tolerates)
// drop out of the survivor reads; latent sector errors on the survivors
// consume spare redundancy, and past the last redundant copy they turn the
// unit into a data-loss event.
func (r *Rebuilder) rebuildUnit(startAt sim.Time) {
	if r.nextSt >= r.stripes {
		r.running = false
		r.stats.FinishedAt = startAt
		if r.Trace.Enabled() {
			r.Trace.Emit(startAt, obs.Event{Kind: obs.KRebuildDone, Dev: int32(r.failed),
				Page: -1, Aux: int64(startAt - r.stats.StartedAt)})
		}
		if r.OnComplete != nil {
			r.OnComplete(startAt)
		}
		return
	}
	lay := r.arr.Layout()
	st := r.nextSt
	r.nextSt++
	r.base = lay.UnitPage(st)
	disks := r.arr.Disks()

	// Read the stripe's unit from every surviving member.
	r.sources = r.sources[:0]
	errs := 0
	for d := 0; d < lay.Disks; d++ {
		if !r.arr.Alive(d) {
			continue
		}
		r.sources = append(r.sources, d)
		if f, ok := disks[d].(raid.Faulty); ok && f.ReadError(startAt, r.base, lay.UnitPages) {
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
	r.earliestNext = startAt + r.interval
	onRead := r.eng.Join(len(r.sources), r.read)
	for _, d := range r.sources {
		r.stats.PagesRead += int64(lay.UnitPages)
		must(disks[d].Read(startAt, r.base, lay.UnitPages, onRead))
	}
}

// writeUnit writes the regenerated unit once every survivor read is done.
func (r *Rebuilder) writeUnit(now sim.Time) {
	r.sink.WriteUnit(now, r.base, r.arr.Layout().UnitPages, r.written)
}

// unitDone accounts the written unit and paces the next one.
func (r *Rebuilder) unitDone(now sim.Time) {
	pages := r.arr.Layout().UnitPages
	r.stats.UnitsRebuilt++
	r.stats.PagesWritten += int64(pages)
	if r.Trace.Enabled() {
		r.Trace.Emit(now, obs.Event{Kind: obs.KRebuildUnit, Dev: int32(r.failed),
			Page: int64(r.base), Pages: int32(pages),
			Aux: r.stats.UnitsRebuilt, Aux2: int64(r.stripes)})
	}
	r.eng.At(max(now, r.earliestNext), r.step)
}
