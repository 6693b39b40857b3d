// Package scrub implements patrol scrubbing for the simulated array: a
// bandwidth-capped background walker (the pacing pattern of
// internal/rebuild) that reads every stripe unit on every surviving
// member, verifies it against the persistent defect state (latent sector
// errors and silent corruption from internal/fault), and repairs bad units
// in place from RAID redundancy — rewriting them and clearing the defect —
// before a rebuild can trip over them.
//
// The scrubber is a polite citizen of the array: a stripe whose members
// are mid-GC is retried with exponential backoff (bounded, then scrubbed
// anyway), and a stripe is deferred while foreground load has the channels
// backlogged (bounded yields per stripe). Passes are finite so a run
// always drains; everything is driven by the simulation engine, keeping
// scrubbed runs exactly as reproducible as unscrubbed ones.
package scrub

import (
	"fmt"

	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/rebuild"
	"gcsteering/internal/sim"
)

// must panics on an I/O error from a member disk: scrub ranges come from
// the validated layout, so an error here is an internal invariant
// violation, not bad input.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// media is the per-disk defect surface the scrubber probes and repairs.
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

// Config tunes one scrubber. Only MBps is required; zero values elsewhere
// pick the defaults noted on each field.
type Config struct {
	// MBps caps the scrubber's array-wide read bandwidth: one stripe
	// (unit bytes × member count) is walked per pacing interval.
	MBps float64
	// Passes is the number of full-array patrol passes (<= 0 means 1).
	// Passes are finite so the event queue always drains.
	Passes int
	// GCBackoff is the first retry delay when a stripe's member is mid-GC;
	// it doubles per retry (default 500 µs).
	GCBackoff sim.Time
	// MaxGCRetries bounds GC backoffs per stripe before scrubbing anyway
	// (default 3).
	MaxGCRetries int
	// YieldBacklog is the per-channel backlog beyond which the scrubber
	// yields to foreground load (default 2 ms).
	YieldBacklog sim.Time
	// YieldDelay is how long one yield defers the stripe (default 2 ms).
	YieldDelay sim.Time
	// MaxYields bounds yields per stripe (default 4).
	MaxYields int
}

// withDefaults fills the zero-valued tunables.
func (c Config) withDefaults() Config {
	if c.Passes <= 0 {
		c.Passes = 1
	}
	if c.GCBackoff <= 0 {
		c.GCBackoff = 500 * sim.Microsecond
	}
	if c.MaxGCRetries <= 0 {
		c.MaxGCRetries = 3
	}
	if c.YieldBacklog <= 0 {
		c.YieldBacklog = 2 * sim.Millisecond
	}
	if c.YieldDelay <= 0 {
		c.YieldDelay = 2 * sim.Millisecond
	}
	if c.MaxYields <= 0 {
		c.MaxYields = 4
	}
	return c
}

// Stats describes a scrub run.
type Stats struct {
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

// Scrubber drives the patrol scrub of one array.
type Scrubber struct {
	eng *sim.Engine
	arr *raid.Array
	cfg Config
	// interval is the pacing gap between stripe scans enforcing the
	// bandwidth cap.
	interval sim.Time

	stripes   int
	nextSt    int
	pass      int
	passStart sim.Time
	gcRetries int // backoffs spent on the current stripe
	yields    int // yields spent on the current stripe
	running   bool
	stats     Stats

	// The in-flight stripe. Stripes are strictly serial (Start is guarded
	// by running and each stripe schedules the next), so one record serves
	// the whole run: the callbacks are bound once in New and the member
	// lists are resliced per stripe, so a stripe allocates nothing.
	st           int                // stripe being scrubbed
	earliestNext sim.Time           // pacing floor for the next stripe
	sources      []int              // surviving members read
	bad          []int              // members whose unit holds a defect
	step         func(now sim.Time) // s.scrubStripe
	read         func(now sim.Time) // s.repair, joined over the member reads
	paced        func(now sim.Time) // s.pace, once the stripe's I/O is done

	// OnComplete, when non-nil, fires once after the final pass finishes.
	OnComplete func(now sim.Time)

	// Pressure, when non-nil, reports that admission control is nearly full;
	// the scrubber defers stripes (by YieldDelay, unbounded) while it holds,
	// shedding background load before the array rejects user I/O. The
	// deferral always terminates: pressure clears as the foreground drains.
	Pressure func() bool

	// Trace, when non-nil, receives scrub lifecycle events (pass start,
	// per-unit repairs, busy/yield deferrals, pass done).
	Trace *obs.Tracer
}

// New prepares a scrubber for the array at the given bandwidth cap.
func New(eng *sim.Engine, arr *raid.Array, cfg Config, pageSize int) (*Scrubber, error) {
	if cfg.MBps <= 0 {
		return nil, fmt.Errorf("scrub: bandwidth %v must be positive", cfg.MBps)
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("scrub: page size %d must be positive", pageSize)
	}
	cfg = cfg.withDefaults()
	lay := arr.Layout()
	s := &Scrubber{
		eng:      eng,
		arr:      arr,
		cfg:      cfg,
		interval: rebuild.PaceInterval(int64(lay.UnitPages*pageSize*lay.Disks), cfg.MBps),
		stripes:  lay.Stripes(),
	}
	s.step, s.read, s.paced = s.scrubStripe, s.repair, s.pace
	return s, nil
}

// Stats returns a snapshot of the run statistics.
func (s *Scrubber) Stats() Stats { return s.stats }

// Running reports whether the scrub is in flight.
func (s *Scrubber) Running() bool { return s.running }

// Progress returns the fraction of the current pass completed.
func (s *Scrubber) Progress() float64 {
	if s.stripes == 0 {
		return 1
	}
	return float64(s.nextSt) / float64(s.stripes)
}

// Start begins the patrol scrub. Call once, before running the engine.
func (s *Scrubber) Start(now sim.Time) {
	if s.running {
		return
	}
	s.running = true
	s.stats.StartedAt = now
	s.passStart = now
	if s.stripes == 0 {
		s.finish(now)
		return
	}
	if s.Trace.Enabled() {
		s.Trace.Emit(now, obs.Event{Kind: obs.KScrubStart, Dev: -1, Page: -1,
			Aux: int64(s.pass), Aux2: int64(s.stripes)})
	}
	s.scrubStripe(now)
}

// finish closes the run.
func (s *Scrubber) finish(now sim.Time) {
	s.running = false
	s.stats.FinishedAt = now
	if s.OnComplete != nil {
		s.OnComplete(now)
	}
}

// badUnit probes (side-effect free) whether disk d's unit [base,
// base+pages) holds a persistent defect the scrubber should repair.
func badUnit(now sim.Time, d raid.Disk, base, pages int) bool {
	m, ok := d.(media)
	return ok && (m.LatentError(base, pages) || m.VerifyError(now, base, pages))
}

// scrubStripe walks one stripe: it reads the unit from every surviving
// member (paced by the bandwidth cap), and rewrites any unit whose defects
// the surviving redundancy can cover. Deferrals — GC backoff and load
// yield — happen before the stripe is charged.
func (s *Scrubber) scrubStripe(now sim.Time) {
	if s.nextSt >= s.stripes {
		// Pass complete.
		s.stats.Passes++
		s.pass++
		if s.Trace.Enabled() {
			s.Trace.Emit(now, obs.Event{Kind: obs.KScrubDone, Dev: -1, Page: -1,
				Aux: s.stats.UnitsRepaired, Aux2: int64(now - s.passStart)})
		}
		if s.pass >= s.cfg.Passes {
			s.finish(now)
			return
		}
		s.nextSt = 0
		s.passStart = now
		if s.Trace.Enabled() {
			s.Trace.Emit(now, obs.Event{Kind: obs.KScrubStart, Dev: -1, Page: -1,
				Aux: int64(s.pass), Aux2: int64(s.stripes)})
		}
	}
	lay := s.arr.Layout()
	st := s.nextSt
	base := lay.UnitPage(st)
	disks := s.arr.Disks()

	// Shed to admission-control pressure first: when the array is close to
	// rejecting user I/O, background reads are the load to drop.
	if s.Pressure != nil && s.Pressure() {
		s.stats.PressureSheds++
		if s.Trace.Enabled() {
			s.Trace.Emit(now, obs.Event{Kind: obs.KShed, Dev: -1,
				Page: int64(base), Aux: 2})
		}
		s.eng.At(now+s.cfg.YieldDelay, s.step)
		return
	}

	// Retry-and-backoff while a member is collecting: scrub reads would
	// queue behind GC. Bounded — after MaxGCRetries the stripe is scrubbed
	// anyway so a GC-heavy phase cannot stall the patrol forever.
	if s.gcRetries < s.cfg.MaxGCRetries {
		for d := 0; d < lay.Disks; d++ {
			if s.arr.Alive(d) && disks[d].InGC(now) {
				backoff := s.cfg.GCBackoff << s.gcRetries
				s.gcRetries++
				s.stats.GCBackoffs++
				if s.Trace.Enabled() {
					s.Trace.Emit(now, obs.Event{Kind: obs.KScrubBusy, Dev: int32(d),
						Page: int64(base), Aux: int64(s.gcRetries), Aux2: int64(backoff)})
				}
				s.eng.At(now+backoff, s.step)
				return
			}
		}
	}
	// Graceful yield under load: when a member's channels are backlogged
	// with foreground work, the stripe is deferred (bounded per stripe).
	if s.yields < s.cfg.MaxYields {
		worst, worstDev := sim.Time(0), -1
		for d := 0; d < lay.Disks; d++ {
			if !s.arr.Alive(d) {
				continue
			}
			if b, ok := disks[d].(backlogged); ok {
				if bl := b.MaxBacklog(now); bl > worst {
					worst, worstDev = bl, d
				}
			}
		}
		if worst > s.cfg.YieldBacklog {
			s.yields++
			s.stats.Yields++
			if s.Trace.Enabled() {
				s.Trace.Emit(now, obs.Event{Kind: obs.KScrubYield, Dev: int32(worstDev),
					Page: int64(base), Aux2: int64(worst)})
			}
			s.eng.At(now+s.cfg.YieldDelay, s.step)
			return
		}
	}
	s.gcRetries, s.yields = 0, 0
	s.nextSt++
	s.stats.StripesScanned++

	s.st, s.sources, s.bad = st, s.sources[:0], s.bad[:0]
	for d := 0; d < lay.Disks; d++ {
		if !s.arr.Alive(d) {
			continue
		}
		s.sources = append(s.sources, d)
		if badUnit(now, disks[d], base, lay.UnitPages) {
			s.bad = append(s.bad, d)
		}
	}
	s.earliestNext = now + s.interval
	if len(s.sources) == 0 {
		s.pace(now)
		return
	}
	onRead := s.eng.Join(len(s.sources), s.read)
	for _, d := range s.sources {
		s.stats.PagesRead += int64(lay.UnitPages)
		must(disks[d].Read(now, base, lay.UnitPages, onRead))
	}
}

// pace schedules the next stripe no earlier than the bandwidth cap allows.
func (s *Scrubber) pace(now sim.Time) { s.eng.At(max(now, s.earliestNext), s.step) }

// repair rewrites the in-flight stripe's bad units in place from
// redundancy — when the surviving redundancy can still cover them all —
// and clears the media defects. Beyond the redundancy budget the units are
// counted unrecoverable and left alone.
func (s *Scrubber) repair(now sim.Time) {
	if len(s.bad) == 0 {
		s.pace(now)
		return
	}
	if len(s.bad) > s.arr.SpareRedundancy() {
		s.stats.UnrecoverableUnits += int64(len(s.bad))
		s.pace(now)
		return
	}
	lay := s.arr.Layout()
	base := lay.UnitPage(s.st)
	disks := s.arr.Disks()
	cb := s.eng.Join(len(s.bad), s.paced)
	for _, d := range s.bad {
		lat, cor := disks[d].(media).RepairPages(base, lay.UnitPages)
		s.stats.UnitsRepaired++
		s.stats.LatentPagesRepaired += int64(lat)
		s.stats.CorruptPagesRepaired += int64(cor)
		s.stats.PagesWritten += int64(lay.UnitPages)
		if s.Trace.Enabled() {
			s.Trace.Emit(now, obs.Event{Kind: obs.KScrubRepair, Dev: int32(d),
				Page: int64(base), Pages: int32(lay.UnitPages),
				Aux: int64(lat), Aux2: int64(cor)})
		}
		must(disks[d].Write(now, base, lay.UnitPages, cb))
	}
}
