package core

import (
	"gcsteering/internal/raid"
	"testing"

	"gcsteering/internal/sim"
)

// stubDisk is a minimal raid.Disk for staging tests with controllable GC
// state and op logs.
type stubDisk struct {
	eng    *sim.Engine
	pages  int
	inGC   bool
	reads  []int
	writes []int
}

func (s *stubDisk) Read(now sim.Time, page, pages int, done func(sim.Time)) error {
	for i := 0; i < pages; i++ {
		s.reads = append(s.reads, page+i)
	}
	if done != nil {
		s.eng.At(now+10, done)
	}
	return nil
}

func (s *stubDisk) Write(now sim.Time, page, pages int, done func(sim.Time)) error {
	for i := 0; i < pages; i++ {
		s.writes = append(s.writes, page+i)
	}
	if done != nil {
		s.eng.At(now+100, done)
	}
	return nil
}

func (s *stubDisk) LogicalPages() int  { return s.pages }
func (s *stubDisk) InGC(sim.Time) bool { return s.inGC }

func TestSlotPool(t *testing.T) {
	p := newSlotPool(100, 3)
	if p.len() != 3 {
		t.Fatal("initial len")
	}
	a, ok := p.alloc()
	if !ok || a != 100 {
		t.Fatalf("first alloc = %d (low pages first)", a)
	}
	p.alloc()
	p.alloc()
	if _, ok := p.alloc(); ok {
		t.Fatal("alloc from empty pool succeeded")
	}
	p.put(a)
	if b, ok := p.alloc(); !ok || b != a {
		t.Fatal("put/alloc cycle broken")
	}
}

func TestDedicatedStaging(t *testing.T) {
	eng := sim.NewEngine()
	dev := &stubDisk{eng: eng, pages: 100}
	ds, err := NewDedicatedStaging(dev, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != "Dedicated" {
		t.Fatal("name")
	}
	// 60% of the 100-page spare is usable as slots; 30% of that is reads.
	if ds.FreeReadSlots() != 18 || ds.FreeWriteSlots() != 42 {
		t.Fatalf("slots %d/%d", ds.FreeReadSlots(), ds.FreeWriteSlots())
	}
	rl, ok := ds.AllocRead(0, 0, false)
	if !ok || rl.Mirrored() || rl.Page0 >= 18 {
		t.Fatalf("read loc %+v", rl)
	}
	wl, ok := ds.AllocWrite(0, 0, false)
	if !ok || wl.Mirrored() || wl.Page0 < 18 {
		t.Fatalf("write loc %+v", wl)
	}
	var wrote, read bool
	ds.Write(0, wl, func(sim.Time) { wrote = true })
	ds.Read(0, rl, func(sim.Time) { read = true })
	eng.Run()
	if !wrote || !read {
		t.Fatal("callbacks missing")
	}
	if len(dev.writes) != 1 || dev.writes[0] != int(wl.Page0) {
		t.Fatalf("device writes %v", dev.writes)
	}
	ds.Free(rl)
	ds.Free(wl)
	if ds.FreeReadSlots() != 18 || ds.FreeWriteSlots() != 42 {
		t.Fatal("Free did not return slots to the right pools")
	}
	ds.SetUnavailable(0) // no-op, must not panic
}

func TestDedicatedStagingValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewDedicatedStaging(&stubDisk{eng: eng, pages: 100}, 1.5); err == nil {
		t.Fatal("bad readFrac accepted")
	}
	if _, err := NewDedicatedStaging(&stubDisk{eng: eng, pages: 1}, 0.5); err == nil {
		t.Fatal("tiny device accepted")
	}
}

func reservedFixture(t *testing.T, n int) (*sim.Engine, []*stubDisk, *ReservedStaging) {
	t.Helper()
	eng := sim.NewEngine()
	stubs := make([]*stubDisk, n)
	ifaces := make([]raid.Disk, n)
	for i := range stubs {
		stubs[i] = &stubDisk{eng: eng, pages: 200}
		ifaces[i] = stubs[i]
	}
	rs, err := NewReservedStaging(ifaces, 100, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rs.eng = eng // bound by New in a steering setup
	return eng, stubs, rs
}

func TestReservedStagingAllocPrefersIdleAndExcludesHome(t *testing.T) {
	_, stubs, rs := reservedFixture(t, 4)
	if rs.Name() != "Reserved" {
		t.Fatal("name")
	}
	stubs[1].inGC = true
	// Exclude home disk 0; device 1 is collecting; expect copies on 2 and 3.
	loc, ok := rs.AllocWrite(0, 0, false)
	if !ok {
		t.Fatal("alloc failed")
	}
	if !loc.Mirrored() {
		t.Fatal("write loc not mirrored")
	}
	if loc.Dev0 == 0 || loc.Dev1 == 0 {
		t.Fatal("allocated on excluded home disk")
	}
	if loc.Dev0 == 1 || loc.Dev1 == 1 {
		t.Fatal("allocated on collecting disk despite idle candidates")
	}
	if loc.Dev0 == loc.Dev1 {
		t.Fatal("mirror copies on the same disk")
	}
	// 60% of the 100-page reservation is usable: reads in [100,130), writes
	// in [130,160).
	if loc.Page0 < 130 || loc.Page1 < 130 {
		t.Fatalf("write slots in read region: %+v", loc)
	}
	rl, ok := rs.AllocRead(0, 2, false)
	if !ok || rl.Mirrored() {
		t.Fatalf("read loc %+v", rl)
	}
	if rl.Page0 < 100 || rl.Page0 >= 130 {
		t.Fatalf("read slot outside read region: %+v", rl)
	}
}

func TestReservedStagingMirroredWriteWaitsForBoth(t *testing.T) {
	eng, stubs, rs := reservedFixture(t, 3)
	loc, ok := rs.AllocWrite(0, -1, false)
	if !ok {
		t.Fatal("alloc failed")
	}
	var doneAt sim.Time
	rs.Write(0, loc, func(tm sim.Time) { doneAt = tm })
	eng.Run()
	if doneAt != 100 {
		t.Fatalf("mirrored write done at %v, want 100 (both copies)", doneAt)
	}
	total := 0
	for _, s := range stubs {
		total += len(s.writes)
	}
	if total != 2 {
		t.Fatalf("wrote %d copies, want 2", total)
	}
}

func TestReservedStagingReadAvoidsCollectingCopy(t *testing.T) {
	eng, stubs, rs := reservedFixture(t, 3)
	loc, _ := rs.AllocWrite(0, -1, false)
	stubs[loc.Dev0].inGC = true
	rs.Read(0, loc, nil)
	eng.Run()
	if len(stubs[loc.Dev0].reads) != 0 {
		t.Fatal("read hit the collecting copy")
	}
	if len(stubs[loc.Dev1].reads) != 1 {
		t.Fatal("read missed the idle mirror")
	}
}

func TestReservedStagingUnavailableAndExhaustion(t *testing.T) {
	_, _, rs := reservedFixture(t, 3)
	rs.SetUnavailable(2)
	// With home=0 excluded and 2 unavailable only device 1 remains: a
	// mirrored alloc needs two distinct devices, so it must fail.
	if _, ok := rs.AllocWrite(0, 0, false); ok {
		t.Fatal("mirrored alloc succeeded with one candidate")
	}
	rs.SetUnavailable(-1)
	if _, ok := rs.AllocWrite(0, 0, false); !ok {
		t.Fatal("alloc failed after clearing unavailability")
	}
	// Exhaust the read pools entirely.
	n := 0
	for {
		if _, ok := rs.AllocRead(0, -1, false); !ok {
			break
		}
		n++
	}
	if n != rsReadCapacity(rs) {
		t.Fatalf("allocated %d read slots", n)
	}
}

// rsReadCapacity is the fixture's static read capacity: 3 devices × 30
// slots (60% of the 100-page reservation is usable, half of it for reads).
func rsReadCapacity(*ReservedStaging) int { return 3 * 30 }

func TestReservedStagingValidation(t *testing.T) {
	eng := sim.NewEngine()
	one := []raid.Disk{&stubDisk{eng: eng, pages: 200}}
	if _, err := NewReservedStaging(one, 100, 100, 0.5); err == nil {
		t.Fatal("single member accepted")
	}
	two := []raid.Disk{&stubDisk{eng: eng, pages: 150}, &stubDisk{eng: eng, pages: 150}}
	if _, err := NewReservedStaging(two, 100, 100, 0.5); err == nil {
		t.Fatal("undersized members accepted")
	}
}
