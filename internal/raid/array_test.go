package raid

import (
	"testing"

	"gcsteering/internal/sim"
)

// fakeDisk records sub-ops and completes each after a fixed latency.
type fakeDisk struct {
	eng      *sim.Engine
	pages    int
	readLat  sim.Time
	writeLat sim.Time
	inGC     bool

	reads  []SubOp // reconstructed from calls (Kind unknown -> OpDataRead)
	writes []SubOp
}

func (f *fakeDisk) Read(now sim.Time, page, pages int, done func(sim.Time)) error {
	f.reads = append(f.reads, SubOp{Page: page, Pages: pages})
	if done != nil {
		f.eng.At(now+f.readLat, done)
	}
	return nil
}

func (f *fakeDisk) Write(now sim.Time, page, pages int, done func(sim.Time)) error {
	f.writes = append(f.writes, SubOp{Page: page, Pages: pages})
	if done != nil {
		f.eng.At(now+f.writeLat, done)
	}
	return nil
}

func (f *fakeDisk) LogicalPages() int    { return f.pages }
func (f *fakeDisk) InGC(t sim.Time) bool { return f.inGC }

// mustMap is Layout.Map for test fixtures whose pages are in range.
func mustMap(l Layout, p int) Loc {
	loc, err := l.Map(p)
	if err != nil {
		panic(err)
	}
	return loc
}

func newFakeArray(t *testing.T, lay Layout) (*sim.Engine, *Array, []*fakeDisk) {
	t.Helper()
	eng := sim.NewEngine()
	fakes := make([]*fakeDisk, lay.Disks)
	disks := make([]Disk, lay.Disks)
	for i := range fakes {
		fakes[i] = &fakeDisk{eng: eng, pages: lay.DiskPages, readLat: 10, writeLat: 100}
		disks[i] = fakes[i]
	}
	a, err := NewArray(eng, lay, disks)
	if err != nil {
		t.Fatal(err)
	}
	return eng, a, fakes
}

func raid5Layout() Layout {
	return Layout{Level: RAID5, Disks: 5, UnitPages: 16, DiskPages: 256}
}

func TestNewArrayValidation(t *testing.T) {
	eng := sim.NewEngine()
	lay := raid5Layout()
	if _, err := NewArray(eng, lay, make([]Disk, 3)); err == nil {
		t.Fatal("wrong disk count accepted")
	}
	small := make([]Disk, 5)
	for i := range small {
		small[i] = &fakeDisk{eng: eng, pages: 8}
	}
	if _, err := NewArray(eng, lay, small); err == nil {
		t.Fatal("undersized disks accepted")
	}
}

func TestReadSingleUnitHitsOneDisk(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	var doneAt sim.Time
	a.Read(0, 0, 4, func(tm sim.Time) { doneAt = tm })
	eng.Run()
	if doneAt != 10 {
		t.Fatalf("read finished at %v, want 10", doneAt)
	}
	nReads := 0
	for _, f := range fakes {
		nReads += len(f.reads)
	}
	if nReads != 1 {
		t.Fatalf("read fanned out to %d sub-reads, want 1", nReads)
	}
}

func TestReadSpanningUnitsFansOut(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	lay := a.Layout()
	// Read two full units starting at unit boundary: two disks, parallel.
	var doneAt sim.Time
	a.Read(0, 0, 2*lay.UnitPages, func(tm sim.Time) { doneAt = tm })
	eng.Run()
	if doneAt != 10 {
		t.Fatalf("parallel read finished at %v, want 10", doneAt)
	}
	touched := 0
	for _, f := range fakes {
		if len(f.reads) > 0 {
			touched++
		}
	}
	if touched != 2 {
		t.Fatalf("touched %d disks, want 2", touched)
	}
}

func TestSmallWriteIsRMW(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	var doneAt sim.Time
	a.Write(0, 0, 1, func(tm sim.Time) { doneAt = tm })
	eng.Run()
	// Phase 1: read old data + old parity (10). Phase 2: write new data +
	// new parity (100). Total 110.
	if doneAt != 110 {
		t.Fatalf("RMW finished at %v, want 110", doneAt)
	}
	st := a.Stats()
	if st.RMWStripes != 1 || st.FullStripes != 0 {
		t.Fatalf("stats: %+v", st)
	}
	var reads, writes int
	parityDisk := a.Layout().ParityDisk(0)
	for d, f := range fakes {
		reads += len(f.reads)
		writes += len(f.writes)
		if d == parityDisk && (len(f.reads) != 1 || len(f.writes) != 1) {
			t.Fatalf("parity disk saw reads=%d writes=%d", len(f.reads), len(f.writes))
		}
	}
	if reads != 2 || writes != 2 {
		t.Fatalf("reads=%d writes=%d, want 2/2", reads, writes)
	}
}

func TestFullStripeWriteSkipsReads(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	lay := a.Layout()
	full := lay.DataDisks() * lay.UnitPages
	var doneAt sim.Time
	a.Write(0, 0, full, func(tm sim.Time) { doneAt = tm })
	eng.Run()
	if doneAt != 100 {
		t.Fatalf("full-stripe write finished at %v, want 100 (no read phase)", doneAt)
	}
	if a.Stats().FullStripes != 1 {
		t.Fatalf("stats: %+v", a.Stats())
	}
	for d, f := range fakes {
		if len(f.reads) != 0 {
			t.Fatalf("disk %d saw %d reads on a full-stripe write", d, len(f.reads))
		}
		if len(f.writes) != 1 {
			t.Fatalf("disk %d saw %d writes, want 1", d, len(f.writes))
		}
	}
}

func TestParityPagesMatchWrittenSpan(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	a.Write(0, 3, 5, nil) // pages 3..7 within unit 0 of stripe 0
	eng.Run()             // phase 2 (the parity write) runs after phase 1 completes
	pd := a.Layout().ParityDisk(0)
	if len(fakes[pd].writes) != 1 {
		t.Fatalf("parity writes = %d", len(fakes[pd].writes))
	}
	w := fakes[pd].writes[0]
	if w.Page != 3 || w.Pages != 5 {
		t.Fatalf("parity write at %d+%d, want 3+5", w.Page, w.Pages)
	}
}

func TestDegradedReadFansToSurvivors(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	lay := a.Layout()
	target := mustMap(lay, 0) // data unit 0 of stripe 0
	if err := a.FailDisk(target.Disk); err != nil {
		t.Fatal(err)
	}
	var doneAt sim.Time
	a.Read(0, 0, 1, func(tm sim.Time) { doneAt = tm })
	eng.Run()
	if doneAt != 10 {
		t.Fatalf("degraded read finished at %v (parallel reconstruct)", doneAt)
	}
	// All surviving disks (3 data + parity) must be read.
	touched := 0
	for d, f := range fakes {
		if d == target.Disk {
			if len(f.reads) != 0 {
				t.Fatal("failed disk was read")
			}
			continue
		}
		if len(f.reads) != 1 {
			t.Fatalf("survivor %d read %d times, want 1", d, len(f.reads))
		}
		touched++
	}
	if touched != 4 {
		t.Fatalf("touched %d survivors, want 4", touched)
	}
	if a.Stats().DegradedReads != 1 {
		t.Fatalf("stats: %+v", a.Stats())
	}
}

func TestDegradedWriteToFailedUnitUpdatesParityOnly(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	lay := a.Layout()
	target := mustMap(lay, 0)
	if err := a.FailDisk(target.Disk); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 0, 1, nil)
	eng.Run()
	if a.Stats().ReconstructWr != 1 {
		t.Fatalf("stats: %+v", a.Stats())
	}
	// Data write must be absent; parity write present.
	pd := lay.ParityDisk(0)
	if len(fakes[pd].writes) != 1 {
		t.Fatalf("parity disk writes = %d, want 1", len(fakes[pd].writes))
	}
	for d, f := range fakes {
		if d != pd && len(f.writes) != 0 {
			t.Fatalf("disk %d saw unexpected write", d)
		}
	}
	// Reconstruct-write reads all surviving data units.
	readCount := 0
	for d, f := range fakes {
		if d == target.Disk && len(f.reads) != 0 {
			t.Fatal("failed disk was read")
		}
		readCount += len(f.reads)
	}
	if readCount != 4 { // 3 surviving data units + parity
		t.Fatalf("phase-1 reads = %d, want 4", readCount)
	}
}

func TestDegradedParityDiskWriteSkipsParity(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	lay := a.Layout()
	pd := lay.ParityDisk(0)
	if err := a.FailDisk(pd); err != nil {
		t.Fatal(err)
	}
	a.Write(0, 0, 1, nil)
	eng.Run()
	// Normal RMW path minus the parity ops.
	target := mustMap(lay, 0)
	if len(fakes[target.Disk].writes) != 1 || len(fakes[target.Disk].reads) != 1 {
		t.Fatalf("data disk ops: r=%d w=%d", len(fakes[target.Disk].reads), len(fakes[target.Disk].writes))
	}
	if len(fakes[pd].reads)+len(fakes[pd].writes) != 0 {
		t.Fatal("failed parity disk was touched")
	}
}

func TestRAID6WriteUpdatesBothParities(t *testing.T) {
	lay := Layout{Level: RAID6, Disks: 6, UnitPages: 16, DiskPages: 256}
	eng, a, fakes := newFakeArray(t, lay)
	a.Write(0, 0, 1, nil)
	eng.Run()
	pd, qd := lay.ParityDisk(0), lay.QDisk(0)
	if len(fakes[pd].writes) != 1 || len(fakes[qd].writes) != 1 {
		t.Fatalf("P writes=%d Q writes=%d", len(fakes[pd].writes), len(fakes[qd].writes))
	}
	if len(fakes[pd].reads) != 1 || len(fakes[qd].reads) != 1 {
		t.Fatalf("P reads=%d Q reads=%d", len(fakes[pd].reads), len(fakes[qd].reads))
	}
}

func TestRAID1WriteMirrorsReadBalances(t *testing.T) {
	lay := Layout{Level: RAID1, Disks: 2, UnitPages: 16, DiskPages: 256}
	eng, a, fakes := newFakeArray(t, lay)
	a.Write(0, 0, 1, nil)
	eng.Run()
	if len(fakes[0].writes) != 1 || len(fakes[1].writes) != 1 {
		t.Fatal("RAID1 write did not mirror")
	}
	a.Read(eng.Now(), 0, 1, nil)
	a.Read(eng.Now(), 0, 1, nil)
	eng.Run()
	if len(fakes[0].reads) != 1 || len(fakes[1].reads) != 1 {
		t.Fatalf("RAID1 reads not balanced: %d/%d", len(fakes[0].reads), len(fakes[1].reads))
	}
}

func TestRAID0WriteDirect(t *testing.T) {
	lay := Layout{Level: RAID0, Disks: 4, UnitPages: 16, DiskPages: 256}
	eng, a, fakes := newFakeArray(t, lay)
	var doneAt sim.Time
	a.Write(0, 0, 1, func(tm sim.Time) { doneAt = tm })
	eng.Run()
	if doneAt != 100 {
		t.Fatalf("RAID0 write at %v, want 100 (no parity, no RMW)", doneAt)
	}
	total := 0
	for _, f := range fakes {
		total += len(f.writes) + len(f.reads)
	}
	if total != 1 {
		t.Fatalf("RAID0 single-page write produced %d sub-ops", total)
	}
}

func TestRouteHookClaimsOps(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	var claimed []SubOp
	a.Route = func(now sim.Time, op SubOp, done func(sim.Time)) bool {
		if op.Kind == OpDataWrite {
			claimed = append(claimed, op)
			eng.At(now+1, done)
			return true
		}
		return false
	}
	var doneAt sim.Time
	a.Write(0, 0, 1, func(tm sim.Time) { doneAt = tm })
	eng.Run()
	if len(claimed) != 1 {
		t.Fatalf("router claimed %d ops, want 1 (the data write)", len(claimed))
	}
	if a.Stats().RoutedSubOps != 1 {
		t.Fatalf("stats: %+v", a.Stats())
	}
	// Data write went to the router; parity write still hit the disk.
	dataDisk := mustMap(a.Layout(), 0).Disk
	if len(fakes[dataDisk].writes) != 0 {
		t.Fatal("claimed op still reached the disk")
	}
	pd := a.Layout().ParityDisk(0)
	if len(fakes[pd].writes) != 1 {
		t.Fatal("parity write missing")
	}
	// RMW: phase1 = 10, then routed write (1) vs parity write (100) -> 110.
	if doneAt != 110 {
		t.Fatalf("doneAt = %v, want 110", doneAt)
	}
}

func TestSubOpsDuringGCCounted(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	fakes[mustMap(a.Layout(), 0).Disk].inGC = true
	a.Read(0, 0, 1, nil)
	eng.Run()
	if a.Stats().SubOpsDuringGC != 1 {
		t.Fatalf("SubOpsDuringGC = %d", a.Stats().SubOpsDuringGC)
	}
}

func TestFailRepairCycle(t *testing.T) {
	eng, a, _ := newFakeArray(t, raid5Layout())
	if err := a.FailDisk(9); err == nil {
		t.Fatal("bad disk id accepted")
	}
	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	if !a.Degraded() || a.Failed() != 2 {
		t.Fatal("degraded state wrong")
	}
	if err := a.FailDisk(3); err == nil {
		t.Fatal("double failure accepted")
	}
	repl := &fakeDisk{eng: eng, pages: a.Layout().DiskPages}
	if err := a.RepairDisk(repl); err != nil {
		t.Fatal(err)
	}
	if a.Degraded() {
		t.Fatal("still degraded after repair")
	}
	if err := a.RepairDisk(nil); err == nil {
		t.Fatal("repair of healthy array accepted")
	}
	// One device cannot fill two slots.
	if err := a.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := a.RepairDisk(repl); err == nil {
		t.Fatal("replacement already in slot 2 accepted for slot 0")
	}
}

func TestRAID0CannotDegrade(t *testing.T) {
	lay := Layout{Level: RAID0, Disks: 4, UnitPages: 16, DiskPages: 256}
	_, a, _ := newFakeArray(t, lay)
	if err := a.FailDisk(0); err == nil {
		t.Fatal("RAID0 FailDisk accepted")
	}
}

func TestWriteSpanningStripesCompletesOnce(t *testing.T) {
	eng, a, _ := newFakeArray(t, raid5Layout())
	lay := a.Layout()
	completions := 0
	span := lay.DataDisks()*lay.UnitPages + 5 // full stripe + spill into next
	a.Write(0, 0, span, func(sim.Time) { completions++ })
	eng.Run()
	if completions != 1 {
		t.Fatalf("done fired %d times", completions)
	}
	st := a.Stats()
	if st.FullStripes != 1 || st.RMWStripes != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRequestRangeErrors(t *testing.T) {
	_, a, _ := newFakeArray(t, raid5Layout())
	total := a.Layout().LogicalPages()
	for _, tc := range []struct{ page, pages int }{
		{total, 1}, {-1, 1}, {0, 0}, {total - 1, 2},
	} {
		if err := a.Read(0, tc.page, tc.pages, nil); err == nil {
			t.Errorf("Read(%d,%d) did not error", tc.page, tc.pages)
		}
		if err := a.Write(0, tc.page, tc.pages, nil); err == nil {
			t.Errorf("Write(%d,%d) did not error", tc.page, tc.pages)
		}
	}
}

// TestCancelMidRMWAbsorbsWritePhase pins the deadline-cancellation
// contract: a token cancelled between an RMW's read and write phases must
// absorb the pending write sub-ops — counted, no disk touched — while the
// enclosing barrier still settles so the request's completion fires exactly
// once and nothing leaks.
func TestCancelMidRMWAbsorbsWritePhase(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	tok := &Cancel{}
	completions := 0
	var doneAt sim.Time
	if err := a.WriteCancelable(0, 0, 1, tok, func(tm sim.Time) { completions++; doneAt = tm }); err != nil {
		t.Fatal(err)
	}
	// Phase 1 reads complete at t=10; cancel strictly before that so the
	// write phase finds the token dead.
	eng.At(5, func(sim.Time) { tok.Cancel() })
	eng.Run()
	if completions != 1 {
		t.Fatalf("done fired %d times, want exactly 1", completions)
	}
	if doneAt != 10 {
		t.Fatalf("absorbed write phase settled at %v, want 10 (the read-phase completion)", doneAt)
	}
	var writes int
	for _, f := range fakes {
		writes += len(f.writes)
	}
	if writes != 0 {
		t.Fatalf("%d writes reached disks after cancellation", writes)
	}
	st := a.Stats()
	if st.CanceledSubOps != 2 {
		t.Fatalf("CanceledSubOps = %d, want 2 (new data + new parity)", st.CanceledSubOps)
	}
	if st.StaleSubOps != 0 {
		t.Fatalf("cancellation miscounted as stale: %+v", st)
	}
}

// TestCancelBeforeIssueAbsorbsEverything covers the fan-out guard: a
// request whose token is already dead at issue time touches no disk at all,
// for both reads and writes, and still completes its callback.
func TestCancelBeforeIssueAbsorbsEverything(t *testing.T) {
	eng, a, fakes := newFakeArray(t, raid5Layout())
	tok := &Cancel{}
	tok.Cancel()
	completions := 0
	if err := a.WriteCancelable(0, 0, 1, tok, func(sim.Time) { completions++ }); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadCancelable(0, 0, 4, tok, func(sim.Time) { completions++ }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if completions != 2 {
		t.Fatalf("completions = %d, want 2", completions)
	}
	for d, f := range fakes {
		if len(f.reads) != 0 || len(f.writes) != 0 {
			t.Fatalf("disk %d touched by a dead request: reads=%d writes=%d", d, len(f.reads), len(f.writes))
		}
	}
	if st := a.Stats(); st.CanceledSubOps == 0 {
		t.Fatalf("no canceled sub-ops counted: %+v", st)
	}
}

// TestNilCancelTokenIsInert pins the zero-cost path: passing a nil token
// must behave exactly like the plain Read/Write entry points.
func TestNilCancelTokenIsInert(t *testing.T) {
	eng, a, _ := newFakeArray(t, raid5Layout())
	var doneAt sim.Time
	if err := a.WriteCancelable(0, 0, 1, nil, func(tm sim.Time) { doneAt = tm }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt != 110 {
		t.Fatalf("RMW with nil token finished at %v, want 110", doneAt)
	}
	if st := a.Stats(); st.CanceledSubOps != 0 {
		t.Fatalf("nil token produced cancellations: %+v", st)
	}
}
