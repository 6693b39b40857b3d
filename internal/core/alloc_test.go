package core

import (
	"testing"

	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// fixedDisk completes every op after a fixed latency and records nothing,
// so an allocation count over it is the array's and the redirector's own.
type fixedDisk struct {
	eng   *sim.Engine
	pages int
	gc    bool
}

func (d *fixedDisk) Read(now sim.Time, page, pages int, done func(sim.Time)) error {
	if done != nil {
		d.eng.At(now+10, done)
	}
	return nil
}

func (d *fixedDisk) Write(now sim.Time, page, pages int, done func(sim.Time)) error {
	if done != nil {
		d.eng.At(now+100, done)
	}
	return nil
}

func (d *fixedDisk) LogicalPages() int      { return d.pages }
func (d *fixedDisk) InGC(now sim.Time) bool { return d.gc }

func discard(sim.Time) {}

// TestSteeringSteadyStateZeroAllocs pins the redirector's pooled fan-ins
// and the reclaim pump: once warmed, a write steered off a collecting
// member into mirrored reserved staging, a read served from that staged
// copy, and a full reclaim cycle that drains the copy home allocate
// nothing.
func TestSteeringSteadyStateZeroAllocs(t *testing.T) {
	const unit, diskPages, reserved, gcDisk = 16, 16 * 256, 1024, 2
	eng := sim.NewEngine()
	fakes := make([]*fixedDisk, 5)
	disks := make([]raid.Disk, 5)
	for i := range fakes {
		fakes[i] = &fixedDisk{eng: eng, pages: diskPages + reserved}
		disks[i] = fakes[i]
	}
	lay := raid.Layout{Level: raid.RAID5, Disks: 5, UnitPages: unit, DiskPages: diskPages}
	arr, err := raid.NewArray(eng, lay, disks)
	if err != nil {
		t.Fatal(err)
	}
	staging, err := NewReservedStaging(disks, diskPages, reserved, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(eng, arr, staging, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	page, home := -1, PageKey{Disk: gcDisk}
	for p := 0; p < lay.LogicalPages(); p += unit {
		if loc, err := lay.Map(p); err == nil && loc.Disk == gcDisk {
			page, home.Page = p, int32(loc.Page)
			break
		}
	}
	if page < 0 {
		t.Fatal("no data unit on the collecting member")
	}
	fakes[gcDisk].gc = true

	op := func(write bool) func() {
		return func() {
			var err error
			if write {
				err = arr.Write(eng.Now(), page, 2, discard)
			} else {
				err = arr.Read(eng.Now(), page, 2, discard)
			}
			if err != nil {
				t.Fatal(err)
			}
			eng.Run()
		}
	}
	write, read := op(true), op(false)
	for i := 0; i < 4; i++ {
		write()
		read()
	}
	before := st.Stats()
	if n := testing.AllocsPerRun(100, write); n != 0 {
		t.Errorf("steered write: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, read); n != 0 {
		t.Errorf("staged read: %v allocations, want 0", n)
	}
	after := st.Stats()
	if after.RedirectedWrites <= before.RedirectedWrites || after.RedirectedReads <= before.RedirectedReads {
		t.Fatalf("ops were not steered: before %+v after %+v", before, after)
	}
	if e, ok := st.DTable().Get(home); !ok || !e.Write || !e.Loc.Mirrored() {
		t.Fatalf("redirected write not staged as a mirrored entry: %+v (found %v)", e, ok)
	}

	// A full reclaim cycle: a write steered off the collecting member, the
	// member's GC ending, and the drain reading the staged copy, writing
	// the run home and retiring the entry.
	reclaim := func() {
		fakes[gcDisk].gc = true
		write()
		fakes[gcDisk].gc = false
		st.OnDeviceGCEnd(eng.Now(), gcDisk)
		eng.Run()
	}
	for i := 0; i < 4; i++ {
		reclaim()
	}
	before = st.Stats()
	if n := testing.AllocsPerRun(100, reclaim); n != 0 {
		t.Errorf("reclaim cycle: %v allocations, want 0", n)
	}
	after = st.Stats()
	if after.ReclaimedPages <= before.ReclaimedPages || after.ReclaimRuns <= before.ReclaimRuns {
		t.Fatalf("nothing reclaimed: before %+v after %+v", before, after)
	}
	if _, ok := st.DTable().Get(home); ok || st.Draining() {
		t.Fatalf("reclaim left the entry staged (drain active %v)", st.Draining())
	}
}
