package scrub

import (
	"testing"

	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// scrubDisk is a Disk with a defect surface: latent and corrupt page sets
// that RepairPages clears, plus configurable GC and backlog signals.
type scrubDisk struct {
	eng      *sim.Engine
	pages    int
	readLat  sim.Time
	writeLat sim.Time

	gcUntil sim.Time // InGC while now < gcUntil
	backlog sim.Time // constant MaxBacklog

	latent  map[int]bool
	corrupt map[int]bool
	reads   int
	writes  int
}

func (f *scrubDisk) Read(now sim.Time, page, pages int, done func(sim.Time)) error {
	f.reads++
	if done != nil {
		f.eng.At(now+f.readLat, done)
	}
	return nil
}

func (f *scrubDisk) Write(now sim.Time, page, pages int, done func(sim.Time)) error {
	f.writes++
	if done != nil {
		f.eng.At(now+f.writeLat, done)
	}
	return nil
}

func (f *scrubDisk) LogicalPages() int              { return f.pages }
func (f *scrubDisk) InGC(t sim.Time) bool           { return t < f.gcUntil }
func (f *scrubDisk) MaxBacklog(t sim.Time) sim.Time { return f.backlog }

func (f *scrubDisk) hit(m map[int]bool, page, pages int) bool {
	for p := page; p < page+pages; p++ {
		if m[p] {
			return true
		}
	}
	return false
}

func (f *scrubDisk) LatentError(page, pages int) bool { return f.hit(f.latent, page, pages) }

func (f *scrubDisk) VerifyError(now sim.Time, page, pages int) bool {
	return f.hit(f.corrupt, page, pages)
}

func (f *scrubDisk) RepairPages(page, pages int) (latent, corrupt int) {
	for p := page; p < page+pages; p++ {
		if f.latent[p] {
			delete(f.latent, p)
			latent++
		}
		if f.corrupt[p] {
			delete(f.corrupt, p)
			corrupt++
		}
	}
	return latent, corrupt
}

func scrubLayout() raid.Layout {
	return raid.Layout{Level: raid.RAID5, Disks: 4, UnitPages: 8, DiskPages: 64}
}

func newScrubArray(t *testing.T, lay raid.Layout) (*sim.Engine, *raid.Array, []*scrubDisk) {
	t.Helper()
	eng := sim.NewEngine()
	fakes := make([]*scrubDisk, lay.Disks)
	disks := make([]raid.Disk, lay.Disks)
	for i := range fakes {
		fakes[i] = &scrubDisk{
			eng: eng, pages: lay.DiskPages, readLat: 10 * sim.Microsecond,
			writeLat: 100 * sim.Microsecond,
			latent:   map[int]bool{}, corrupt: map[int]bool{},
		}
		disks[i] = fakes[i]
	}
	arr, err := raid.NewArray(eng, lay, disks)
	if err != nil {
		t.Fatal(err)
	}
	return eng, arr, fakes
}

func runScrub(t *testing.T, eng *sim.Engine, arr *raid.Array, cfg Config) *Scrubber {
	t.Helper()
	sc, err := New(eng, arr, cfg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sc.Start(eng.Now())
	eng.Run()
	if sc.Running() {
		t.Fatal("scrub still running after the event queue drained")
	}
	return sc
}

func TestNewValidation(t *testing.T) {
	eng, arr, _ := newScrubArray(t, scrubLayout())
	if _, err := New(eng, arr, Config{MBps: 0}, 4096); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := New(eng, arr, Config{MBps: -5}, 4096); err == nil {
		t.Fatal("negative bandwidth accepted")
	}
	if _, err := New(eng, arr, Config{MBps: 100}, 0); err == nil {
		t.Fatal("zero page size accepted")
	}
}

func TestCleanPassReadsEverythingRepairsNothing(t *testing.T) {
	lay := scrubLayout()
	eng, arr, _ := newScrubArray(t, lay)
	done := false
	sc, err := New(eng, arr, Config{MBps: 100}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sc.OnComplete = func(sim.Time) { done = true }
	sc.Start(0)
	eng.Run()
	st := sc.Stats()
	if !done {
		t.Fatal("OnComplete never fired")
	}
	if want := int64(lay.Stripes()); st.Passes != 1 || st.StripesScanned != want {
		t.Fatalf("passes=%d scanned=%d, want 1 pass over %d stripes", st.Passes, st.StripesScanned, want)
	}
	if want := int64(lay.Stripes() * lay.UnitPages * lay.Disks); st.PagesRead != want {
		t.Fatalf("pages read = %d, want %d (every unit of every member)", st.PagesRead, want)
	}
	if st.UnitsRepaired != 0 || st.PagesWritten != 0 || st.UnrecoverableUnits != 0 {
		t.Fatalf("clean array produced repairs: %+v", st)
	}
	if st.FinishedAt <= st.StartedAt {
		t.Fatalf("finish %v not after start %v", st.FinishedAt, st.StartedAt)
	}
	if sc.Progress() != 1 {
		t.Fatalf("progress = %v, want 1", sc.Progress())
	}
}

func TestPacingEnforcesBandwidthCap(t *testing.T) {
	lay := scrubLayout()
	eng, arr, _ := newScrubArray(t, lay)
	// 4 KiB pages × 8 pages/unit × 4 members = 128 KiB per stripe; at
	// 64 MB/s that is 2 ms per stripe.
	sc := runScrub(t, eng, arr, Config{MBps: 64})
	perStripe := sim.Time(float64(8*4096*4) / (64e6) * float64(sim.Second))
	if min := sim.Time(lay.Stripes()-1) * perStripe; sc.Stats().FinishedAt < min {
		t.Fatalf("finished at %v, but the cap allows one stripe per %v (min %v)",
			sc.Stats().FinishedAt, perStripe, min)
	}
}

func TestRepairsClearDefectsInPlace(t *testing.T) {
	lay := scrubLayout()
	eng, arr, fakes := newScrubArray(t, lay)
	// Two latent pages on disk 1's unit of stripe 0, one corrupt page on
	// disk 3's unit of stripe 2 — each stripe has one bad member, within
	// RAID5's redundancy.
	fakes[1].latent[0] = true
	fakes[1].latent[3] = true
	fakes[3].corrupt[lay.UnitPage(2)+1] = true
	sc := runScrub(t, eng, arr, Config{MBps: 100})
	st := sc.Stats()
	if st.UnitsRepaired != 2 {
		t.Fatalf("units repaired = %d, want 2", st.UnitsRepaired)
	}
	if st.LatentPagesRepaired != 2 || st.CorruptPagesRepaired != 1 {
		t.Fatalf("repaired latent=%d corrupt=%d, want 2 and 1",
			st.LatentPagesRepaired, st.CorruptPagesRepaired)
	}
	if want := int64(2 * lay.UnitPages); st.PagesWritten != want {
		t.Fatalf("pages written = %d, want %d (whole units rewritten)", st.PagesWritten, want)
	}
	if len(fakes[1].latent) != 0 || len(fakes[3].corrupt) != 0 {
		t.Fatal("defects survived the repair")
	}
	if fakes[1].writes == 0 || fakes[3].writes == 0 {
		t.Fatal("repairs did not reach the media")
	}
}

func TestUnitsBeyondRedundancyAreLeftAlone(t *testing.T) {
	lay := scrubLayout()
	eng, arr, fakes := newScrubArray(t, lay)
	// Two bad members on the same RAID5 stripe exceed the single-parity
	// budget: both are counted unrecoverable and neither is rewritten.
	fakes[0].latent[0] = true
	fakes[2].latent[0] = true
	sc := runScrub(t, eng, arr, Config{MBps: 100})
	st := sc.Stats()
	if st.UnrecoverableUnits != 2 {
		t.Fatalf("unrecoverable units = %d, want 2", st.UnrecoverableUnits)
	}
	if st.UnitsRepaired != 0 || st.PagesWritten != 0 {
		t.Fatalf("over-budget stripe was rewritten: %+v", st)
	}
	if !fakes[0].latent[0] || !fakes[2].latent[0] {
		t.Fatal("unrecoverable defects were cleared")
	}
}

func TestGCBackoffDefersThenProceeds(t *testing.T) {
	lay := scrubLayout()
	eng, arr, fakes := newScrubArray(t, lay)
	// Member 2 is mid-GC for the whole run, so every stripe backs off
	// MaxGCRetries times and is then scrubbed anyway.
	fakes[2].gcUntil = sim.Time(1 << 62)
	sc := runScrub(t, eng, arr, Config{MBps: 100, GCBackoff: 100 * sim.Microsecond, MaxGCRetries: 2})
	st := sc.Stats()
	if want := int64(lay.Stripes() * 2); st.GCBackoffs != want {
		t.Fatalf("GC backoffs = %d, want %d (2 bounded retries per stripe)", st.GCBackoffs, want)
	}
	if want := int64(lay.Stripes()); st.StripesScanned != want {
		t.Fatalf("scanned %d stripes, want %d — backoff must not skip stripes", st.StripesScanned, want)
	}
}

func TestGCBackoffWaitsOutShortGC(t *testing.T) {
	eng, arr, fakes := newScrubArray(t, scrubLayout())
	// GC ends quickly: the first stripe defers at least once, then the rest
	// of the pass sees an idle array and no further backoffs accumulate
	// beyond the GC window.
	fakes[1].gcUntil = 300 * sim.Microsecond
	sc := runScrub(t, eng, arr, Config{MBps: 100, GCBackoff: 200 * sim.Microsecond, MaxGCRetries: 5})
	st := sc.Stats()
	if st.GCBackoffs == 0 {
		t.Fatal("no backoff despite a member mid-GC at start")
	}
	if st.GCBackoffs >= 5 {
		t.Fatalf("GC backoffs = %d; the retry should have found GC over", st.GCBackoffs)
	}
}

func TestYieldsToForegroundLoad(t *testing.T) {
	lay := scrubLayout()
	eng, arr, fakes := newScrubArray(t, lay)
	// Member 0 reports a permanent 10 ms backlog: every stripe yields the
	// bounded number of times, then proceeds.
	fakes[0].backlog = 10 * sim.Millisecond
	sc := runScrub(t, eng, arr, Config{
		MBps: 100, YieldBacklog: 2 * sim.Millisecond,
		YieldDelay: sim.Millisecond, MaxYields: 3,
	})
	st := sc.Stats()
	if want := int64(lay.Stripes() * 3); st.Yields != want {
		t.Fatalf("yields = %d, want %d (3 bounded yields per stripe)", st.Yields, want)
	}
	if want := int64(lay.Stripes()); st.StripesScanned != want {
		t.Fatalf("scanned %d stripes, want %d — yielding must not skip stripes", st.StripesScanned, want)
	}
}

func TestMultiplePasses(t *testing.T) {
	lay := scrubLayout()
	eng, arr, fakes := newScrubArray(t, lay)
	fakes[1].latent[0] = true
	sc := runScrub(t, eng, arr, Config{MBps: 100, Passes: 3})
	st := sc.Stats()
	if st.Passes != 3 {
		t.Fatalf("passes = %d, want 3", st.Passes)
	}
	if want := int64(3 * lay.Stripes()); st.StripesScanned != want {
		t.Fatalf("scanned %d stripes, want %d", st.StripesScanned, want)
	}
	// The defect is repaired on pass one; later passes find a clean array.
	if st.UnitsRepaired != 1 {
		t.Fatalf("units repaired = %d, want exactly 1 across all passes", st.UnitsRepaired)
	}
}

func TestStartIsIdempotentWhileRunning(t *testing.T) {
	eng, arr, _ := newScrubArray(t, scrubLayout())
	sc, err := New(eng, arr, Config{MBps: 100}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sc.Start(0)
	sc.Start(0) // second Start must not double-schedule the walk
	eng.Run()
	lay := scrubLayout()
	if want := int64(lay.Stripes()); sc.Stats().StripesScanned != want {
		t.Fatalf("scanned %d stripes, want %d — double Start double-walked", sc.Stats().StripesScanned, want)
	}
}

// stripeStepper returns a func that steps the engine until count rises:
// one whole background stripe, from its predecessor's completion to its
// own start.
func stripeStepper(t *testing.T, eng *sim.Engine, count func() int64) func() {
	return func() {
		n := count()
		for count() == n {
			if !eng.Step() {
				t.Fatal("event queue drained mid-stripe")
			}
		}
	}
}

// TestScrubStripeSteadyStateZeroAllocs pins the scrubber's one in-flight
// stripe record: once warmed, reading a stripe from every member and
// repairing its one bad unit in place allocate nothing.
func TestScrubStripeSteadyStateZeroAllocs(t *testing.T) {
	lay := raid.Layout{Level: raid.RAID5, Disks: 4, UnitPages: 8, DiskPages: 8 * 300}
	eng, arr, fakes := newScrubArray(t, lay)
	for st := 0; st < lay.Stripes(); st++ {
		f := fakes[st%lay.Disks]
		if st%2 == 0 {
			f.latent[lay.UnitPage(st)] = true
		} else {
			f.corrupt[lay.UnitPage(st)+1] = true
		}
	}
	sc, err := New(eng, arr, Config{MBps: 100}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	stripe := stripeStepper(t, eng, func() int64 { return sc.Stats().StripesScanned })
	sc.Start(0)
	for i := 0; i < 4; i++ {
		stripe()
	}
	if n := testing.AllocsPerRun(100, stripe); n != 0 {
		t.Errorf("scrub stripe: %v allocations, want 0", n)
	}
	eng.Run()
	if st := sc.Stats(); st.UnitsRepaired != int64(lay.Stripes()) {
		t.Fatalf("repaired %d units, want %d", st.UnitsRepaired, lay.Stripes())
	}
}

// TestResyncStripeSteadyStateZeroAllocs pins the resync walker's one
// in-flight stripe record: once warmed, reading a stripe and rewriting its
// parity (and its torn unit, on odd stripes; even ones are half-written
// without a torn page) allocate nothing.
func TestResyncStripeSteadyStateZeroAllocs(t *testing.T) {
	lay := raid.Layout{Level: raid.RAID5, Disks: 4, UnitPages: 8, DiskPages: 8 * 300}
	eng, arr, fakes := newScrubArray(t, lay)
	stripes := make([]int, lay.Stripes())
	for st := range stripes {
		stripes[st] = st
		if st%2 == 1 {
			fakes[st%lay.Disks].corrupt[lay.UnitPage(st)] = true
		}
	}
	rs, err := NewResync(eng, arr, 100, 4096, stripes)
	if err != nil {
		t.Fatal(err)
	}
	rs.Inconsistent = func(st int) bool { return st%2 == 0 }
	stripe := stripeStepper(t, eng, func() int64 { return rs.Stats().StripesWalked })
	rs.Start(0)
	for i := 0; i < 4; i++ {
		stripe()
	}
	if n := testing.AllocsPerRun(100, stripe); n != 0 {
		t.Errorf("resync stripe: %v allocations, want 0", n)
	}
	eng.Run()
	if st := rs.Stats(); st.Inconsistent != int64(len(stripes)) || st.TornUnitsRepaired != int64(len(stripes)/2) {
		t.Fatalf("resync repaired %d stripes, %d torn units; want %d and %d",
			st.Inconsistent, st.TornUnitsRepaired, len(stripes), len(stripes)/2)
	}
}
