package rebuild

import (
	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// media is the per-disk defect surface scrub and resync probe and repair.
// *ssd.Device implements it (delegating to a scrub-capable fault hook); a
// disk that does not is treated as defect-free.
type media interface {
	LatentError(page, pages int) bool
	VerifyError(now sim.Time, page, pages int) bool
	RepairPages(page, pages int) (latent, corrupt int)
}

// backlogged is implemented by disks that can report their worst
// per-channel backlog — the scrubber's load signal for yielding.
type backlogged interface {
	MaxBacklog(now sim.Time) sim.Time
}

// The scrubber's politeness: how it defers a stripe to GC and to
// foreground load.
const (
	// gcBackoff is the first retry delay when a stripe's member is mid-GC;
	// it doubles per retry.
	gcBackoff = 500 * sim.Microsecond
	// maxGCRetries bounds GC backoffs per stripe before scrubbing anyway.
	maxGCRetries = 3
	// yieldBacklog is the per-channel backlog beyond which the scrubber
	// yields to foreground load.
	yieldBacklog = 2 * sim.Millisecond
	// yieldDelay is how long one yield (or pressure shed) defers a stripe.
	yieldDelay = 2 * sim.Millisecond
	// maxYields bounds yields per stripe.
	maxYields = 4
)

// ScrubStats describes a scrub run.
type ScrubStats struct {
	Passes               int64 // completed patrol passes
	StripesScanned       int64
	UnitsRepaired        int64 // stripe units rewritten in place
	LatentPagesRepaired  int64 // persistent latent sector errors cleared
	CorruptPagesRepaired int64 // silently corrupted pages cleared
	UnrecoverableUnits   int64 // bad units beyond the surviving redundancy
	GCBackoffs           int64 // stripe retries because a member was mid-GC
	Yields               int64 // stripe deferrals to foreground load
	PressureSheds        int64 // stripe deferrals to admission-control pressure
	PagesRead            int64
	PagesWritten         int64
	StartedAt            sim.Time
	FinishedAt           sim.Time
}

// Scrubber is the patrol scrub of one array: one pass that reads every
// stripe unit on every surviving member, verifies it against the
// persistent defect state (latent sector errors and silent corruption
// from internal/fault), and repairs bad units in place from RAID
// redundancy — rewriting them and clearing the defect — before a rebuild
// can trip over them.
//
// The scrubber is a polite citizen of the array: a stripe whose members
// are mid-GC is retried with exponential backoff (bounded, then scrubbed
// anyway), and a stripe is deferred while foreground load has the
// channels backlogged (bounded yields per stripe). It paces one stripe
// (unit bytes × member count) per interval.
type Scrubber struct {
	walker
	gcRetries int   // backoffs spent on the current stripe
	yields    int   // yields spent on the current stripe
	bad       []int // members whose unit of the stripe holds a defect
	stats     ScrubStats

	// Pressure, when non-nil, reports that admission control is nearly
	// full; the scrubber defers stripes (by yieldDelay, unbounded) while it
	// holds, shedding background load before the array rejects user I/O.
	// The deferral always terminates: pressure clears as the foreground
	// drains.
	Pressure func() bool
}

// NewScrub prepares a one-pass patrol scrub of the array at a bandwidth
// cap of mbps MB/s.
func NewScrub(eng *sim.Engine, arr *raid.Array, mbps float64, pageSize int) (*Scrubber, error) {
	s := &Scrubber{}
	lay := arr.Layout()
	if err := s.init("scrub", eng, arr, s, lay.UnitPages*lay.Disks, mbps, pageSize, lay.Stripes(), nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Stats returns a snapshot of the run statistics.
func (s *Scrubber) Stats() ScrubStats { return s.stats }

func (s *Scrubber) begin(now sim.Time) {
	s.stats.StartedAt = now
	if s.Trace.Enabled() {
		s.Trace.Emit(now, obs.Event{Kind: obs.KScrubStart, Dev: -1, Page: -1,
			Aux2: int64(s.n)})
	}
}

func (s *Scrubber) end(now sim.Time) {
	s.stats.Passes++
	s.stats.FinishedAt = now
	if s.Trace.Enabled() {
		s.Trace.Emit(now, obs.Event{Kind: obs.KScrubDone, Dev: -1, Page: -1,
			Aux: s.stats.UnitsRepaired, Aux2: int64(now - s.stats.StartedAt)})
	}
}

// hold defers stripe st — to admission-control pressure, to a member
// mid-GC, or to backlogged foreground load — before it is charged.
func (s *Scrubber) hold(now sim.Time, st int) bool {
	base := s.arr.Layout().UnitPage(st)
	disks := s.arr.Disks()

	// Shed to admission-control pressure first: when the array is close to
	// rejecting user I/O, background reads are the load to drop.
	if s.Pressure != nil && s.Pressure() {
		s.stats.PressureSheds++
		if s.Trace.Enabled() {
			s.Trace.Emit(now, obs.Event{Kind: obs.KShed, Dev: -1,
				Page: int64(base), Aux: 2})
		}
		s.eng.At(now+yieldDelay, s.step)
		return true
	}

	// Retry-and-backoff while a member is collecting: scrub reads would
	// queue behind GC. Bounded — after maxGCRetries the stripe is scrubbed
	// anyway so a GC-heavy phase cannot stall the patrol forever.
	if s.gcRetries < maxGCRetries {
		for d := range disks {
			if s.arr.Alive(d) && disks[d].InGC(now) {
				backoff := gcBackoff << s.gcRetries
				s.gcRetries++
				s.stats.GCBackoffs++
				if s.Trace.Enabled() {
					s.Trace.Emit(now, obs.Event{Kind: obs.KScrubBusy, Dev: int32(d),
						Page: int64(base), Aux: int64(s.gcRetries), Aux2: int64(backoff)})
				}
				s.eng.At(now+backoff, s.step)
				return true
			}
		}
	}
	// Graceful yield under load: when a member's channels are backlogged
	// with foreground work, the stripe is deferred (bounded per stripe).
	if s.yields < maxYields {
		worst, worstDev := sim.Time(0), -1
		for d := range disks {
			if !s.arr.Alive(d) {
				continue
			}
			if b, ok := disks[d].(backlogged); ok {
				if bl := b.MaxBacklog(now); bl > worst {
					worst, worstDev = bl, d
				}
			}
		}
		if worst > yieldBacklog {
			s.yields++
			s.stats.Yields++
			if s.Trace.Enabled() {
				s.Trace.Emit(now, obs.Event{Kind: obs.KScrubYield, Dev: int32(worstDev),
					Page: int64(base), Aux2: int64(worst)})
			}
			s.eng.At(now+yieldDelay, s.step)
			return true
		}
	}
	s.gcRetries, s.yields = 0, 0
	return false
}

// visit probes (side-effect free) which survivors' units hold a
// persistent defect the scrubber should repair.
func (s *Scrubber) visit(now sim.Time) {
	s.stats.StripesScanned++
	disks := s.arr.Disks()
	pages := s.unitPages()
	s.bad = s.bad[:0]
	for _, d := range s.sources {
		if m, ok := disks[d].(media); ok && (m.LatentError(s.base, pages) || m.VerifyError(now, s.base, pages)) {
			s.bad = append(s.bad, d)
		}
	}
	s.stats.PagesRead += s.pagesRead()
}

// readDone rewrites the stripe's bad units in place from redundancy —
// when the surviving redundancy can still cover them all — and clears the
// media defects. Beyond the redundancy budget the units are counted
// unrecoverable and left alone.
func (s *Scrubber) readDone(now sim.Time) {
	if len(s.bad) == 0 {
		s.pace(now)
		return
	}
	if len(s.bad) > s.arr.SpareRedundancy() {
		s.stats.UnrecoverableUnits += int64(len(s.bad))
		s.pace(now)
		return
	}
	pages := s.unitPages()
	disks := s.arr.Disks()
	cb := s.eng.Join(len(s.bad), s.paced)
	for _, d := range s.bad {
		lat, cor := disks[d].(media).RepairPages(s.base, pages)
		s.stats.UnitsRepaired++
		s.stats.LatentPagesRepaired += int64(lat)
		s.stats.CorruptPagesRepaired += int64(cor)
		s.stats.PagesWritten += int64(pages)
		if s.Trace.Enabled() {
			s.Trace.Emit(now, obs.Event{Kind: obs.KScrubRepair, Dev: int32(d),
				Page: int64(s.base), Pages: int32(pages),
				Aux: int64(lat), Aux2: int64(cor)})
		}
		must(disks[d].Write(now, s.base, pages, cb))
	}
}
