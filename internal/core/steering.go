package core

import (
	"fmt"

	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// must panics on an I/O error from a member device: steering and staging
// ranges are derived from validated geometry, so an error here is an
// internal invariant violation, not bad input.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Popularity tracking, fixed at the paper's setup.
const (
	// hotFrac bounds the popular-read working set per member disk as a
	// fraction of its data pages (the paper migrates "only up to 10% of
	// popular data blocks").
	hotFrac = 0.10
	// migrateThreshold is how many recent re-reads a page needs before it
	// is considered popular enough to migrate.
	migrateThreshold = 2
	// scanThresholdPages makes the popularity tracker scan-resistant: read
	// sub-ops larger than this bypass R_LRU entirely (a large sequential
	// scan is not "hot data" and would otherwise flush the LRU and trigger
	// bulk migrations; note sub-ops are capped at the stripe unit, so this
	// must sit below the unit size to catch full-unit scan sub-ops).
	scanThresholdPages = 8
)

// Config switches GC-Steering's mechanisms. The zero value turns both off;
// start from DefaultConfig.
type Config struct {
	// MigrateHotReads enables proactive migration of popular read data to
	// the staging space (disable for the writes-only ablation).
	MigrateHotReads bool
	// ReclaimMerge merges contiguous redirected pages into one write-back
	// (the paper's merge-before-reclaim optimization; disable to ablate).
	ReclaimMerge bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{MigrateHotReads: true, ReclaimMerge: true}
}

// Stats counts the redirector's activity, all in pages.
type Stats struct {
	RedirectedReads  int64 // read pages served by the staging space
	RedirectedWrites int64 // write pages absorbed by the staging space
	DirectReads      int64 // read pages sent to their home disk
	DirectWrites     int64 // write pages sent to their home disk

	// GCPages counts pages addressed to a disk that was collecting at the
	// time; GCPagesRedirected counts how many of those dodged the disk.
	// Their ratio is the paper's "85.5% of user I/O requests during the GC
	// period are redirected" metric.
	GCPages           int64
	GCPagesRedirected int64

	// QuarantinePages counts pages addressed to a health-quarantined disk;
	// QuarantinePagesRedirected those that dodged it — the same pair as
	// GCPages for the generalized busy signal.
	QuarantinePages           int64
	QuarantinePagesRedirected int64

	Migrations        int64 // hot-read pages copied to staging
	MigrationsSkipped int64 // hot pages not migrated (budget exhausted)
	MigrationsShed    int64 // hot pages not migrated (queue pressure)
	// WriteAllocFallbacks counts steered writes where the allocator was
	// actually asked for a slot and had none; WriteAllocGated counts writes
	// that skipped allocation entirely because the rebuild-headroom gate was
	// closed. The two are different signals — fallbacks mean the pool is
	// exhausted, gated skips mean the gate is doing its job — and folding
	// gated skips into WriteAllocFallbacks (as earlier versions did)
	// overstated allocator exhaustion during rebuilds.
	WriteAllocFallbacks int64
	WriteAllocGated     int64

	ReclaimRuns         int64 // write-back batches issued
	ReclaimedPages      int64 // pages drained back to their home disks
	ReclaimSkippedStale int64 // write-backs superseded by a newer redirect
}

// Steering is the GC-Steering controller. It installs itself as the
// array's sub-op router: data reads and writes addressed to a member disk
// that is garbage-collecting (or to a degraded array during
// reconstruction) are redirected to the staging space; parity traffic is
// never redirected, so the array's redundancy stays in place (§III-C).
type Steering struct {
	eng     *sim.Engine
	arr     *raid.Array
	devs    []raid.Disk
	staging Staging
	dt      *DTable
	hot     []*RLRU
	cfg     Config

	rebuilding bool
	failedHome int            // member whose home locations are gone (-1 = none)
	pumps      []*reclaimPump // per-disk reclaim drains
	writeCap   int            // staging write slots at construction
	stats      Stats

	// Trace, when non-nil, receives steering decisions: redirects,
	// migrations, allocator fallbacks/gated skips, and reclaim runs.
	Trace *obs.Tracer

	// Unhealthy, when non-nil, reports members the health monitor has
	// quarantined. The redirector treats them exactly like collecting
	// disks — reads of staged pages dodge them, writes are steered away —
	// and additionally migrates their hot read pages to staging, since a
	// quarantine (unlike a GC episode) can outlast the popularity of the
	// data stuck on the sick member.
	Unhealthy func(now sim.Time, disk int) bool

	// Pressure, when non-nil, reports queue pressure (admission control
	// nearly full); hot-read migrations are shed while it holds so
	// background copies do not compete with a saturated foreground.
	Pressure func() bool

	// Scratch buffers reused across route calls. The engine is
	// single-threaded and every buffer is consumed before route returns;
	// the reclaim drain defers through the event queue, so route never
	// re-enters itself.
	stagedScratch []StageLoc
	locScratch    []StageLoc
	runScratch    []pageRun
}

// pageRun is a contiguous page range forwarded to the home disk in one op.
type pageRun struct{ page, pages int }

// appendPage extends the last run of runs by page when contiguous, or
// starts a new run.
func appendPage(runs []pageRun, page int) []pageRun {
	if n := len(runs); n > 0 && runs[n-1].page+runs[n-1].pages == page {
		runs[n-1].pages++
		return runs
	}
	return append(runs, pageRun{page, 1})
}

// New wires a Steering controller onto the array. It replaces the array's
// Route hook.
func New(eng *sim.Engine, arr *raid.Array, staging Staging, cfg Config) (*Steering, error) {
	if staging == nil {
		return nil, fmt.Errorf("core: nil staging space")
	}
	devs := arr.Disks()
	pages := arr.Layout().DiskPages
	s := &Steering{
		eng:        eng,
		arr:        arr,
		devs:       devs,
		staging:    staging,
		dt:         NewDTable(len(devs), pages),
		cfg:        cfg,
		failedHome: -1,
	}
	hotCap := int(hotFrac * float64(pages))
	if hotCap < 1 {
		hotCap = 1
	}
	for d := range devs {
		s.hot = append(s.hot, NewRLRU(hotCap, pages))
		s.pumps = append(s.pumps, newReclaimPump(s, d))
	}
	if rs, ok := staging.(*ReservedStaging); ok {
		rs.eng = eng // mirrored writes fan in on the engine
	}
	arr.Route = s.route
	arr.GCAwareWrites = true
	s.writeCap = staging.FreeWriteSlots()
	return s, nil
}

// stagingPressure reports that the staging write pool is nearly exhausted.
// The paper defers reclaim until reconstruction completes, but a rebuild
// that spans the whole workload would otherwise overflow the staging space
// outright, so under pressure the reclaimer drains even while rebuilding
// (documented as a deviation in EXPERIMENTS.md).
func (s *Steering) stagingPressure() bool {
	return s.staging.FreeWriteSlots()*10 < s.writeCap
}

// DTable exposes the redirect log (tests, persistence, and the facade).
func (s *Steering) DTable() *DTable { return s.dt }

// Stats returns a snapshot of the counters.
func (s *Steering) Stats() Stats { return s.stats }

// Staging returns the staging space.
func (s *Steering) Staging() Staging { return s.staging }

// Rebuilding reports whether reconstruction mode is active.
func (s *Steering) Rebuilding() bool { return s.rebuilding }

// SetRebuilding switches reconstruction mode: while active, *all* data
// writes and D_Table-hit reads are steered to the staging space so the
// degraded array can dedicate itself to recovery (§III-D), and reclaim is
// suspended. Leaving reconstruction mode kicks a full drain.
func (s *Steering) SetRebuilding(now sim.Time, on bool) {
	s.rebuilding = on
	if !on {
		s.DrainAll(now)
	}
}

// SetFailedHome records that member disk's home locations are unreachable:
// the reclaimer will not try to write entries back to it (their staged
// copies keep shadowing the lost home until the member is rebuilt). Pass
// -1 to clear.
func (s *Steering) SetFailedHome(disk int) { s.failedHome = disk }

// DropStagedOn handles the loss of member dev as a staging target (§III-D:
// upon an SSD failure, its staged contents must be accounted for before
// reconstruction). Hot-read copies located on the failed member are simply
// dropped — the home copy is authoritative. Redirected-write entries keep
// their surviving mirror (the failed copy is forgotten); single-copy write
// entries on the failed member are dropped too, because the in-place parity
// update at redirect time makes the data reconstructible from the array.
//
// ForEach visits in (disk, page) order, so the staging pool's free list
// fills in a run-independent order.
func (s *Steering) DropStagedOn(dev int32) {
	s.dt.ForEach(func(k PageKey, e Entry) {
		onDev0 := e.Loc.Dev0 == dev
		onDev1 := e.Loc.Mirrored() && e.Loc.Dev1 == dev
		if !onDev0 && !onDev1 {
			return
		}
		if !e.Write || (!e.Loc.Mirrored() && onDev0) {
			s.freeSurviving(e.Loc, dev)
			s.dt.Delete(k)
			return
		}
		// Mirrored write: keep the surviving copy as the only copy.
		loc := e.Loc
		if onDev0 {
			loc.Dev0, loc.Page0 = loc.Dev1, loc.Page1
		}
		loc.Dev1 = NoMirror
		s.dt.Put(k, loc, true)
	})
}

// freeSurviving returns to the pool only the copies of loc that are not on
// the failed device (the failed device's slots are gone with it).
func (s *Steering) freeSurviving(loc StageLoc, failed int32) {
	if loc.Dev0 != failed && loc.Dev0 != NoMirror {
		s.staging.Free(StageLoc{Dev0: loc.Dev0, Page0: loc.Page0, Dev1: NoMirror})
	}
	if loc.Mirrored() && loc.Dev1 != failed {
		s.staging.Free(StageLoc{Dev0: loc.Dev1, Page0: loc.Page1, Dev1: NoMirror})
	}
}

// SnapshotDTable serializes the redirect log, modelling the paper's
// battery-backed NVRAM persistence (§III-E): a power failure must not lose
// the mapping from home locations to staged data.
func (s *Steering) SnapshotDTable() ([]byte, error) { return s.dt.Snapshot() }

// RestoreDTable reloads a redirect log after a crash. Every restored
// entry's staging slots are re-reserved so the allocator cannot hand them
// out again. The restore fails, keeping the current table, if the snapshot
// names a home page outside this array or a slot inconsistent with the
// staging space.
func (s *Steering) RestoreDTable(data []byte) error {
	dt := NewDTable(len(s.devs), s.arr.Layout().DiskPages)
	if err := dt.Restore(data); err != nil {
		return err
	}
	var reserveErr error
	dt.ForEach(func(k PageKey, e Entry) {
		if reserveErr != nil {
			return
		}
		if err := s.staging.Reserve(e.Loc); err != nil {
			reserveErr = fmt.Errorf("entry (%d,%d): %w", k.Disk, k.Page, err)
		}
	})
	if reserveErr != nil {
		return reserveErr
	}
	s.dt = dt
	return nil
}

// unhealthy consults the health monitor's quarantine signal, if wired.
func (s *Steering) unhealthy(now sim.Time, disk int) bool {
	return s.Unhealthy != nil && s.Unhealthy(now, disk)
}

// RedirectRatio returns the fraction of GC-period pages that dodged a
// collecting disk (the paper's 85.5% metric). Zero when no GC was observed.
func (s *Steering) RedirectRatio() float64 {
	if s.stats.GCPages == 0 {
		return 0
	}
	return float64(s.stats.GCPagesRedirected) / float64(s.stats.GCPages)
}

// route is installed as raid.Array.Route. It runs once per sub-op on
// the steering request path and is a gcsvet hot-path root: hotalloc
// holds it and everything it reaches allocation-free.
//
//gcsvet:hot
func (s *Steering) route(now sim.Time, op raid.SubOp, done func(sim.Time)) bool {
	switch op.Kind {
	case raid.OpParityRead, raid.OpParityWrite:
		// Parity stays in its correct position so redirected data remains
		// recoverable (§III-C); never redirect it.
		return false
	case raid.OpDataWrite:
		return s.routeWrite(now, op, done)
	default: // OpDataRead, OpOldDataRead
		return s.routeRead(now, op, done)
	}
}

// busy reports whether op's disk is collecting and whether it is
// quarantined, counting op's pages against each signal.
func (s *Steering) busy(now sim.Time, op raid.SubOp) (inGC, quar bool) {
	inGC, quar = s.devs[op.Disk].InGC(now), s.unhealthy(now, op.Disk)
	if inGC {
		s.stats.GCPages += int64(op.Pages)
	}
	if quar {
		s.stats.QuarantinePages += int64(op.Pages)
	}
	return inGC, quar
}

// routeRead serves a read sub-op. Staged pages are always read from the
// staging space — D_Table is checked first so fetched data is always
// up to date (§III-C) — and the remainder goes to the home disk, which may
// be collecting (only popular data has a staged copy to dodge to).
func (s *Steering) routeRead(now sim.Time, op raid.SubOp, done func(sim.Time)) bool {
	disk := op.Disk
	inGC, quar := s.busy(now, op)

	staged := s.stagedScratch[:0]
	anyStaged := false
	for i := 0; i < op.Pages; i++ {
		if e, ok := s.dt.Get(PageKey{Disk: int32(disk), Page: int32(op.Page + i)}); ok {
			staged = append(staged, e.Loc)
			anyStaged = true
		} else {
			staged = append(staged, StageLoc{Dev0: NoMirror})
		}
	}
	if !anyStaged && !inGC && !quar {
		// Fast path: nothing staged, disk healthy. Track popularity and
		// maybe migrate, but let the array issue the op itself.
		s.stagedScratch = staged[:0]
		s.observeRead(now, op)
		return false
	}

	// Count completions: one per staged page + one per direct run.
	direct := s.runScratch[:0]
	nOps := 0
	for i := 0; i < op.Pages; i++ {
		if staged[i].Dev0 != NoMirror {
			nOps++
			continue
		}
		direct = appendPage(direct, op.Page+i)
	}
	nOps += len(direct)
	cb := s.eng.Join(nOps, done)
	for i := 0; i < op.Pages; i++ {
		if staged[i].Dev0 == NoMirror {
			continue
		}
		s.stats.RedirectedReads++
		if inGC {
			s.stats.GCPagesRedirected++
		}
		if quar {
			s.stats.QuarantinePagesRedirected++
		}
		if s.Trace.Enabled() {
			s.Trace.Emit(now, obs.Event{Kind: obs.KRedirectRead,
				Dev: int32(disk), Page: int64(op.Page + i), Pages: 1,
				Aux: int64(staged[i].Dev0), Aux2: boolInt(inGC)})
		}
		s.staging.Read(now, staged[i], cb)
	}
	for _, r := range direct {
		s.stats.DirectReads += int64(r.pages)
		must(s.devs[disk].Read(now, r.page, r.pages, cb))
	}
	if quar && op.Kind == raid.OpDataRead && op.Pages <= scanThresholdPages {
		// A quarantine, unlike a GC episode, can outlast the popularity of
		// the data stuck on the sick member: keep tracking the pages that
		// still had to be read directly so their hot ones escape to the
		// staging space. (GC-only busy reads intentionally skip this — GC
		// episodes end on their own, and tracking here would change the
		// established GC-path behaviour.)
		for _, r := range direct {
			for i := 0; i < r.pages; i++ {
				s.touchAndMigrate(now, disk, int32(r.page+i))
			}
		}
	}
	s.stagedScratch, s.runScratch = staged[:0], direct[:0]
	return true
}

// observeRead updates the popularity tracker and proactively migrates
// popular pages to the staging space. Migration piggybacks on the read the
// user already performed (the data is in controller memory), so only the
// staging write is charged, off the request's critical path.
func (s *Steering) observeRead(now sim.Time, op raid.SubOp) {
	s.stats.DirectReads += int64(op.Pages)
	if op.Kind != raid.OpDataRead {
		return // RMW old-data reads are not popularity signals
	}
	if op.Pages > scanThresholdPages {
		return // scan resistance: large sequential reads are not hot data
	}
	for i := 0; i < op.Pages; i++ {
		s.touchAndMigrate(now, op.Disk, int32(op.Page+i))
	}
}

// touchAndMigrate records one read of (disk, page) in the popularity
// tracker and, once the page crosses the migrate threshold, copies it to
// the staging space — unless the admission controller reports queue
// pressure, in which case the copy is shed (the page stays tracked and
// gets another chance on its next read).
func (s *Steering) touchAndMigrate(now sim.Time, disk int, page int32) {
	hits := s.hot[disk].Touch(page)
	if hits < migrateThreshold || !s.cfg.MigrateHotReads {
		return
	}
	key := PageKey{Disk: int32(disk), Page: page}
	if _, already := s.dt.Get(key); already {
		return
	}
	if s.Pressure != nil && s.Pressure() {
		s.stats.MigrationsShed++
		if s.Trace.Enabled() {
			s.Trace.Emit(now, obs.Event{Kind: obs.KShed,
				Dev: int32(disk), Page: int64(page), Pages: 1, Aux: 1})
		}
		return
	}
	loc, ok := s.staging.AllocRead(now, disk, true)
	if !ok {
		s.stats.MigrationsSkipped++
		return
	}
	s.dt.Put(key, loc, false)
	s.stats.Migrations++
	if s.Trace.Enabled() {
		s.Trace.Emit(now, obs.Event{Kind: obs.KMigrate,
			Dev: int32(disk), Page: int64(page), Pages: 1,
			Aux: int64(loc.Dev0)})
	}
	s.staging.Write(now, loc, nil)
}

// routeWrite serves a write sub-op. While the home disk is collecting (or
// the array is rebuilding) every page is redirected; otherwise only pages
// that already have a live D_Table entry are redirected (the staging copy
// must stay the newest version). The array updates parity in place either
// way — route never sees parity ops here.
func (s *Steering) routeWrite(now sim.Time, op raid.SubOp, done func(sim.Time)) bool {
	disk := op.Disk
	inGC, quar := s.busy(now, op)
	steerAll := inGC || quar || s.rebuilding

	if !steerAll {
		// Healthy disk: hot-read copies of written pages are dropped (the
		// new data makes them stale), and only pages with pending
		// redirected-write data must keep going to the staging space so the
		// staged copy stays the newest version.
		any := false
		for i := 0; i < op.Pages; i++ {
			key := PageKey{Disk: int32(disk), Page: int32(op.Page + i)}
			if e, ok := s.dt.Get(key); ok {
				if e.Write {
					any = true
				} else {
					s.staging.Free(e.Loc)
					s.dt.Delete(key)
				}
			}
		}
		if !any {
			s.stats.DirectWrites += int64(op.Pages)
			s.invalidateHot(disk, op)
			return false
		}
	}

	locs := s.locScratch[:0]
	direct := s.runScratch[:0]
	for i := 0; i < op.Pages; i++ {
		key := PageKey{Disk: int32(disk), Page: int32(op.Page + i)}
		e, exists := s.dt.Get(key)
		if exists && !e.Write && !steerAll {
			// Stale hot-read copy under a healthy write: invalidate and
			// write through.
			s.staging.Free(e.Loc)
			s.dt.Delete(key)
			exists = false
		}
		if steerAll || exists {
			// Outside reconstruction the redirect must land on idle
			// devices; steering onto a collecting device helps nothing, so
			// the write falls through to its home disk instead. During
			// reconstruction, keep allocation headroom: once the pool runs
			// low the remaining writes go to the degraded array directly
			// rather than grinding the staging devices at full occupancy.
			headroom := !s.rebuilding || s.staging.FreeWriteSlots()*4 >= s.writeCap
			attempted := headroom || exists
			var loc StageLoc
			ok := false
			if attempted {
				loc, ok = s.staging.AllocWrite(now, disk, !s.rebuilding)
			}
			if ok {
				if exists {
					s.staging.Free(e.Loc)
				}
				s.dt.Put(key, loc, true)
				locs = append(locs, loc)
				s.stats.RedirectedWrites++
				if inGC {
					s.stats.GCPagesRedirected++
				}
				if quar {
					s.stats.QuarantinePagesRedirected++
				}
				if s.Trace.Enabled() {
					s.Trace.Emit(now, obs.Event{Kind: obs.KRedirectWrite,
						Dev: int32(disk), Page: int64(op.Page + i), Pages: 1,
						Aux: int64(loc.Dev0), Aux2: boolInt(inGC)})
				}
				continue
			}
			// The page goes to the home disk instead: either the allocator
			// was asked and is exhausted (a fallback), or the rebuild
			// headroom gate skipped the allocator entirely (a gated skip).
			// Only genuine allocation attempts count as fallbacks.
			if attempted {
				s.stats.WriteAllocFallbacks++
			} else {
				s.stats.WriteAllocGated++
			}
			if s.Trace.Enabled() {
				kind := obs.KAllocFallback
				if !attempted {
					kind = obs.KAllocGated
				}
				s.Trace.Emit(now, obs.Event{Kind: kind,
					Dev: int32(disk), Page: int64(op.Page + i), Pages: 1,
					Aux: int64(s.staging.FreeWriteSlots())})
			}
			// Under rebuild-time pressure, kick the reclaimer so capacity
			// comes back, and drop any stale staged copy so it cannot
			// shadow the new data.
			if s.rebuilding && s.stagingPressure() {
				s.DrainAll(now)
			}
			if exists {
				s.staging.Free(e.Loc)
				s.dt.Delete(key)
			}
		}
		direct = appendPage(direct, op.Page+i)
	}
	s.invalidateHot(disk, op)
	if len(locs) == 0 && len(direct) == 1 && direct[0].pages == op.Pages {
		// Everything fell back: let the array issue it.
		s.locScratch, s.runScratch = locs[:0], direct[:0]
		s.stats.DirectWrites += int64(op.Pages)
		return false
	}
	cb := s.eng.Join(len(locs)+len(direct), done)
	for _, loc := range locs {
		s.staging.Write(now, loc, cb)
	}
	for _, r := range direct {
		s.stats.DirectWrites += int64(r.pages)
		must(s.devs[disk].Write(now, r.page, r.pages, cb))
	}
	s.locScratch, s.runScratch = locs[:0], direct[:0]
	return true
}

// invalidateHot drops written pages from the popularity tracker: freshly
// written data is no longer "read-only hot".
func (s *Steering) invalidateHot(disk int, op raid.SubOp) {
	lru := s.hot[disk]
	for i := 0; i < op.Pages; i++ {
		lru.Remove(int32(op.Page + i))
	}
}
