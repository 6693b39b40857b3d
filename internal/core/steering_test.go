package core

import (
	"math/rand"
	"testing"

	"gcsteering/internal/flash"
	"gcsteering/internal/raid"
	"gcsteering/internal/sched"
	"gcsteering/internal/sim"
	"gcsteering/internal/ssd"
)

// recDisk wraps an ssd.Device and logs per-page reads and writes so tests
// can assert exactly where traffic landed.
type recDisk struct {
	inner  *ssd.Device
	reads  map[int]int // page -> count
	writes map[int]int
}

func newRecDisk(d *ssd.Device) *recDisk {
	return &recDisk{inner: d, reads: map[int]int{}, writes: map[int]int{}}
}

func (r *recDisk) Read(now sim.Time, page, pages int, done func(sim.Time)) error {
	for i := 0; i < pages; i++ {
		r.reads[page+i]++
	}
	return r.inner.Read(now, page, pages, done)
}

func (r *recDisk) Write(now sim.Time, page, pages int, done func(sim.Time)) error {
	for i := 0; i < pages; i++ {
		r.writes[page+i]++
	}
	return r.inner.Write(now, page, pages, done)
}

func (r *recDisk) LogicalPages() int      { return r.inner.LogicalPages() }
func (r *recDisk) InGC(now sim.Time) bool { return r.inner.InGC(now) }

// rig assembles a 5-disk RAID5 with steering for integration tests.
type rig struct {
	eng  *sim.Engine
	devs []*ssd.Device
	recs []*recDisk
	arr  *raid.Array
	hub  *sched.Hub
	st   *Steering
	lay  raid.Layout
}

func devConfig() ssd.Config {
	return ssd.Config{
		Geometry: flash.Geometry{
			PageSize:      4096,
			PagesPerBlock: 32,
			Blocks:        64,
			Channels:      4,
			OverProvision: 0.20,
		},
		Latency:     ssd.DefaultLatency(),
		GCLowWater:  2,
		GCHighWater: 6,
	}
}

// newRig builds the fixture. stagingKind is "reserved" or "dedicated".
func newRig(t *testing.T, stagingKind string, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	const nDisks = 5
	r := &rig{eng: eng}
	disks := make([]raid.Disk, nDisks)
	for i := 0; i < nDisks; i++ {
		d, err := ssd.New(i, eng, devConfig())
		if err != nil {
			t.Fatal(err)
		}
		d.Prefill(rand.New(rand.NewSource(int64(i+1))), 0.5, d.LogicalPages())
		rec := newRecDisk(d)
		r.devs = append(r.devs, d)
		r.recs = append(r.recs, rec)
		disks[i] = rec
	}
	devPages := r.devs[0].LogicalPages() // 1632 with the test geometry
	var staging Staging
	var diskPages int
	switch stagingKind {
	case "reserved":
		diskPages = 1296 // leaves 336 reserved pages per member
		var err error
		staging, err = NewReservedStaging(disks, diskPages, devPages-diskPages, 0.5)
		if err != nil {
			t.Fatal(err)
		}
	case "dedicated":
		diskPages = 1632
		spare, err := ssd.New(nDisks, eng, devConfig())
		if err != nil {
			t.Fatal(err)
		}
		spare.Prefill(rand.New(rand.NewSource(99)), 0, 0)
		staging, err = NewDedicatedStaging(newRecDisk(spare), 0.5)
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown staging kind %q", stagingKind)
	}
	r.lay = raid.Layout{Level: raid.RAID5, Disks: nDisks, UnitPages: 16, DiskPages: diskPages}
	arr, err := raid.NewArray(eng, r.lay, disks)
	if err != nil {
		t.Fatal(err)
	}
	r.arr = arr
	st, err := New(eng, arr, staging, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.st = st
	r.hub = sched.NewHub(r.devs)
	r.hub.SubscribeEnd(func(now sim.Time, d *ssd.Device) { st.OnDeviceGCEnd(now, d.ID) })
	return r
}

// homeOf returns the home (disk, diskPage) of array page p.
func (r *rig) homeOf(p int) (int, int) {
	loc, err := r.lay.Map(p)
	if err != nil {
		panic(err)
	}
	return loc.Disk, loc.Page
}

func TestFastPathDeclinesHealthyOps(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	r.arr.Read(0, 0, 1, nil)
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	if got := r.arr.Stats().RoutedSubOps; got != 0 {
		t.Fatalf("healthy ops were claimed by the router: %d", got)
	}
	s := r.st.Stats()
	if s.DirectReads == 0 || s.DirectWrites == 0 {
		t.Fatalf("direct counters empty: %+v", s)
	}
	if s.RedirectedReads+s.RedirectedWrites != 0 {
		t.Fatalf("healthy traffic redirected: %+v", s)
	}
}

func TestWriteDuringGCIsRedirected(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, homePage := r.homeOf(0)
	r.devs[homeDisk].ForceGC(r.eng.Now())
	if !r.devs[homeDisk].InGC(r.eng.Now()) {
		t.Fatal("precondition: home disk must be collecting")
	}
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	// Run only shortly: running to quiescence would also perform the
	// post-GC reclaim, which legitimately writes the page home.
	r.eng.RunFor(sim.Millisecond)

	if r.recs[homeDisk].writes[homePage] != 0 {
		t.Fatal("data write reached the collecting disk")
	}
	key := PageKey{Disk: int32(homeDisk), Page: int32(homePage)}
	e, ok := r.st.DTable().Get(key)
	if !ok || !e.Write {
		t.Fatalf("no write entry after steering: %+v ok=%v", e, ok)
	}
	if !e.Loc.Mirrored() {
		t.Fatal("reserved staging write not mirrored")
	}
	if e.Loc.Dev0 == int32(homeDisk) || e.Loc.Dev1 == int32(homeDisk) {
		t.Fatal("staging copy allocated on the collecting home disk")
	}
	// Parity must still be updated in its correct position.
	pd := r.lay.ParityDisk(0)
	if r.recs[pd].writes[homePage] == 0 {
		t.Fatal("parity write missing from the parity disk")
	}
	if r.st.Stats().RedirectedWrites != 1 {
		t.Fatalf("stats: %+v", r.st.Stats())
	}
}

func TestReadChecksDTableFirst(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, homePage := r.homeOf(0)
	r.devs[homeDisk].ForceGC(r.eng.Now())
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.RunFor(sim.Millisecond)

	// Read while the entry is live: the home page must not be read even if
	// GC has ended by now — staging holds the newest version.
	before := r.recs[homeDisk].reads[homePage]
	r.arr.Read(r.eng.Now(), 0, 1, nil)
	r.eng.RunFor(sim.Millisecond)
	if r.recs[homeDisk].reads[homePage] != before {
		t.Fatal("read bypassed the staged copy")
	}
	if r.st.Stats().RedirectedReads == 0 {
		t.Fatalf("stats: %+v", r.st.Stats())
	}
}

func TestReclaimAfterGCEnds(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, homePage := r.homeOf(0)
	r.devs[homeDisk].ForceGC(r.eng.Now())
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.Run() // drains everything: GC ends, reclaim fires

	dt := r.st.DTable()
	if dt.WriteLen() != 0 {
		t.Fatalf("%d write entries left after reclaim", dt.WriteLen())
	}
	if r.recs[homeDisk].writes[homePage] == 0 {
		t.Fatal("reclaim never wrote the page home")
	}
	s := r.st.Stats()
	if s.ReclaimedPages != 1 || s.ReclaimRuns == 0 {
		t.Fatalf("stats: %+v", s)
	}
	// Staging slots must be back in the pool.
	if r.st.Staging().FreeWriteSlots() == 0 {
		t.Fatal("staging write slots leaked")
	}
}

func TestReclaimMergesContiguousRuns(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, homePage := r.homeOf(0)
	r.devs[homeDisk].ForceGC(r.eng.Now())
	// Steer 4 contiguous pages of the same unit.
	r.arr.Write(r.eng.Now(), 0, 4, nil)
	r.eng.Run()
	s := r.st.Stats()
	if s.RedirectedWrites != 4 {
		t.Fatalf("stats: %+v", s)
	}
	if s.ReclaimRuns != 1 {
		t.Fatalf("reclaim used %d runs for 4 contiguous pages, want 1 merged run", s.ReclaimRuns)
	}
	if r.recs[homeDisk].writes[homePage] == 0 || r.recs[homeDisk].writes[homePage+3] == 0 {
		t.Fatal("merged write-back did not cover the run")
	}
}

func TestHotReadMigrationAndGCDodge(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, homePage := r.homeOf(0)
	// Three reads make the page popular (migrateThreshold=2 prior hits);
	// the third migrates it.
	for i := 0; i < 3; i++ {
		r.arr.Read(r.eng.Now(), 0, 1, nil)
		r.eng.RunFor(sim.Millisecond)
	}
	key := PageKey{Disk: int32(homeDisk), Page: int32(homePage)}
	e, ok := r.st.DTable().Get(key)
	if !ok || e.Write {
		t.Fatalf("expected hot-read entry, got %+v ok=%v", e, ok)
	}
	if r.st.Stats().Migrations != 1 {
		t.Fatalf("stats: %+v", r.st.Stats())
	}
	// Now the home disk collects; the read dodges it via the staged copy.
	r.devs[homeDisk].ForceGC(r.eng.Now())
	before := r.recs[homeDisk].reads[homePage]
	r.arr.Read(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	if r.recs[homeDisk].reads[homePage] != before {
		t.Fatal("popular read hit the collecting disk")
	}
	if r.st.Stats().GCPagesRedirected == 0 {
		t.Fatalf("stats: %+v", r.st.Stats())
	}
}

func TestHealthyWriteInvalidatesHotCopy(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, homePage := r.homeOf(0)
	for i := 0; i < 3; i++ {
		r.arr.Read(r.eng.Now(), 0, 1, nil)
		r.eng.RunFor(sim.Millisecond)
	}
	key := PageKey{Disk: int32(homeDisk), Page: int32(homePage)}
	if _, ok := r.st.DTable().Get(key); !ok {
		t.Fatal("precondition: hot copy missing")
	}
	freeBefore := r.st.Staging().FreeReadSlots()
	// Healthy write: must go direct and drop the stale copy.
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	if _, ok := r.st.DTable().Get(key); ok {
		t.Fatal("stale hot copy survived a write")
	}
	if r.recs[homeDisk].writes[homePage] == 0 {
		t.Fatal("healthy write did not reach the home disk")
	}
	if r.st.Staging().FreeReadSlots() != freeBefore+1 {
		t.Fatal("hot slot not freed")
	}
}

func TestRMWOldDataReadServedFromStaging(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, homePage := r.homeOf(0)
	r.devs[homeDisk].ForceGC(r.eng.Now())
	r.arr.Write(r.eng.Now(), 0, 1, nil) // creates the staged entry
	r.eng.RunFor(sim.Millisecond)
	// Second write to the same page: RMW phase 1 wants old data, which now
	// lives in staging; the home page must not be read.
	before := r.recs[homeDisk].reads[homePage]
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	if r.recs[homeDisk].reads[homePage] != before {
		t.Fatal("RMW old-data read bypassed the staged copy")
	}
}

func TestRebuildingModeSteersEverythingAndSuspendsReclaim(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	r.st.SetRebuilding(r.eng.Now(), true)
	if !r.st.Rebuilding() {
		t.Fatal("mode not set")
	}
	homeDisk, homePage := r.homeOf(0)
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	if r.recs[homeDisk].writes[homePage] != 0 {
		t.Fatal("write reached the array during rebuild")
	}
	if r.st.DTable().WriteLen() != 1 {
		t.Fatal("write entry missing (or reclaimed despite rebuild mode)")
	}
	// Leaving rebuild mode drains the staging space.
	r.st.SetRebuilding(r.eng.Now(), false)
	r.eng.Run()
	if r.st.DTable().WriteLen() != 0 {
		t.Fatal("drain after rebuild did not reclaim")
	}
	if r.recs[homeDisk].writes[homePage] == 0 {
		t.Fatal("reclaimed page never reached home")
	}
}

func TestStagingExhaustionFallsBack(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, _ := r.homeOf(0)
	// Exhaust the write pools.
	for {
		if _, ok := r.st.Staging().AllocWrite(r.eng.Now(), homeDisk, false); !ok {
			break
		}
	}
	r.devs[homeDisk].ForceGC(r.eng.Now())
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	s := r.st.Stats()
	if s.WriteAllocFallbacks != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if r.st.DTable().WriteLen() != 0 {
		t.Fatal("fallback left a phantom entry")
	}
}

// TestRebuildHeadroomGateCountsSeparately is the regression test for the
// fallback-counter fix: when the rebuild-headroom gate is closed the
// allocator is never asked for a slot, so the skip must count as
// WriteAllocGated — not WriteAllocFallbacks, which earlier versions
// incremented even though no allocation was attempted, overstating
// allocator exhaustion during rebuilds.
func TestRebuildHeadroomGateCountsSeparately(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	homeDisk, _ := r.homeOf(0)
	// Drain the write pool below the 25% headroom threshold, but not to
	// exhaustion: the gate (not the allocator) must be what stops steering.
	cap := r.st.Staging().FreeWriteSlots()
	for r.st.Staging().FreeWriteSlots()*4 >= cap {
		if _, ok := r.st.Staging().AllocWrite(r.eng.Now(), homeDisk, false); !ok {
			t.Fatal("pool exhausted before reaching the headroom threshold")
		}
	}
	if r.st.Staging().FreeWriteSlots() == 0 {
		t.Fatal("precondition: pool must not be exhausted")
	}
	r.st.SetRebuilding(r.eng.Now(), true)
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	s := r.st.Stats()
	if s.WriteAllocGated != 1 {
		t.Fatalf("WriteAllocGated = %d, want 1 (stats: %+v)", s.WriteAllocGated, s)
	}
	if s.WriteAllocFallbacks != 0 {
		t.Fatalf("WriteAllocFallbacks = %d, want 0 — gate skips must not count as allocator exhaustion", s.WriteAllocFallbacks)
	}
}

func TestRedirectRatioUnderHotWorkload(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	hotPages := 64 // small hot set, read repeatedly
	total := r.lay.LogicalPages()
	for i := 0; i < 4000; i++ {
		now := r.eng.Now()
		if rng.Float64() < 0.4 {
			r.arr.Read(now, rng.Intn(hotPages), 1, nil)
		} else {
			r.arr.Write(now, hotPages+rng.Intn(total-hotPages), 1, nil)
		}
		r.eng.RunFor(600 * sim.Microsecond)
	}
	r.eng.Run()
	s := r.st.Stats()
	if s.GCPages == 0 {
		t.Skip("workload never hit a GC window; nothing to measure")
	}
	if ratio := r.st.RedirectRatio(); ratio < 0.5 {
		t.Fatalf("redirect ratio %.2f; expected the majority of GC-period pages to dodge (paper: 85.5%%)", ratio)
	}
}

func TestDedicatedStagingEndToEnd(t *testing.T) {
	r := newRig(t, "dedicated", DefaultConfig())
	homeDisk, homePage := r.homeOf(0)
	r.devs[homeDisk].ForceGC(r.eng.Now())
	r.arr.Write(r.eng.Now(), 0, 1, nil)
	r.eng.Run()
	if r.recs[homeDisk].writes[homePage] == 0 {
		// Reclaim must have written it home by now.
		t.Fatal("reclaim missing in dedicated configuration")
	}
	if r.st.DTable().WriteLen() != 0 {
		t.Fatal("entries left after reclaim")
	}
	s := r.st.Stats()
	if s.RedirectedWrites != 1 || s.ReclaimedPages != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, "reserved", DefaultConfig()) // builds fine
	_ = r
	eng := sim.NewEngine()
	disks := make([]raid.Disk, 3)
	for i := range disks {
		d, err := ssd.New(i, eng, devConfig())
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = d
	}
	lay := raid.Layout{Level: raid.RAID5, Disks: 3, UnitPages: 16, DiskPages: 1632}
	arr, err := raid.NewArray(eng, lay, disks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, arr, nil, DefaultConfig()); err == nil {
		t.Fatal("nil staging space accepted")
	}
}
