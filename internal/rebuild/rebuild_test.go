package rebuild

import (
	"testing"

	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

func TestNewRequiresDegradedArray(t *testing.T) {
	eng, arr, fakes := newArray(t, testLayout())
	spare := &SpareSink{Disk: fakes[0]}
	if _, err := New(eng, arr, spare, 10, 4096); err == nil {
		t.Fatal("healthy array accepted")
	}
	arr.FailDisk(2)
	if _, err := New(eng, arr, spare, 0, 4096); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := New(eng, arr, spare, 10, 4096); err != nil {
		t.Fatal(err)
	}
}

func TestSpareRebuildCompletes(t *testing.T) {
	eng, arr, fakes := newArray(t, testLayout())
	arr.FailDisk(2)
	spare := newFakeDisk(eng, 220)
	rb, err := New(eng, arr, &SpareSink{Disk: spare}, 10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var completedAt sim.Time
	rb.OnComplete = func(now sim.Time) { completedAt = now }
	rb.Start(0)
	if !rb.Running() {
		t.Fatal("not running after Start")
	}
	eng.Run()
	if rb.Running() {
		t.Fatal("still running after drain")
	}
	lay := arr.Layout()
	if spare.writes != lay.DiskPages {
		t.Fatalf("spare got %d pages, want %d", spare.writes, lay.DiskPages)
	}
	// Every survivor is read in full; the failed disk is never touched.
	for d, f := range fakes {
		if d == 2 {
			if f.reads != 0 {
				t.Fatal("failed disk was read")
			}
			continue
		}
		if f.reads != lay.DiskPages {
			t.Fatalf("survivor %d read %d pages, want %d", d, f.reads, lay.DiskPages)
		}
	}
	st := rb.Stats()
	if st.UnitsRebuilt != int64(lay.Stripes()) {
		t.Fatalf("units rebuilt %d, want %d", st.UnitsRebuilt, lay.Stripes())
	}
	if completedAt == 0 || st.FinishedAt != completedAt {
		t.Fatal("completion accounting wrong")
	}
}

// TestBandwidthCapPacesRebuild checks the cap through the rebuild's own
// Stats: with disks faster than the cap, rebuilding a member takes its
// bytes over the cap, not much less and not much more.
func TestBandwidthCapPacesRebuild(t *testing.T) {
	eng, arr, _ := newArray(t, testLayout())
	arr.FailDisk(0)
	spare := newFakeDisk(eng, 220)
	rb, err := New(eng, arr, &SpareSink{Disk: spare}, 10, 4096) // 10 MB/s
	if err != nil {
		t.Fatal(err)
	}
	rb.Start(0)
	eng.Run()
	lay := arr.Layout()
	totalBytes := float64(lay.DiskPages * 4096)
	minDuration := sim.Time(totalBytes / 10e6 * float64(sim.Second))
	got := rb.Stats().FinishedAt - rb.Stats().StartedAt
	if got < minDuration*9/10 {
		t.Fatalf("rebuild took %v, cap demands >= %v", got, minDuration)
	}
	// And it should not be vastly slower than the cap when disks are fast.
	if got > minDuration*2 {
		t.Fatalf("rebuild took %v, expected near the cap %v", got, minDuration)
	}
}

func TestReservedSinkSpreadsAcrossSurvivors(t *testing.T) {
	eng, arr, fakes := newArray(t, testLayout())
	arr.FailDisk(1)
	var survivors []raid.Disk
	var survFakes []*fakeDisk
	for d, f := range fakes {
		if d != 1 {
			survivors = append(survivors, f)
			survFakes = append(survFakes, f)
		}
	}
	sink, err := NewReservedSink(survivors, 160, 60)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Name() != "Reserved" {
		t.Fatal("name")
	}
	rb, err := New(eng, arr, sink, 10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rb.Start(0)
	eng.Run()
	// Rebuilt writes must hit every survivor's reserved region (>= 160),
	// roughly evenly. Note each survivor also served rebuild reads.
	lay := arr.Layout()
	wrote := 0
	for i, f := range survFakes {
		// reads hit the data region; writes only the reserved region
		if f.writes == 0 {
			t.Fatalf("survivor %d received no rebuilt units", i)
		}
		if f.lastW < 160 {
			t.Fatalf("survivor %d rebuilt write at %d, below reserved base", i, f.lastW)
		}
		wrote += f.writes
	}
	if wrote != lay.DiskPages {
		t.Fatalf("total rebuilt pages %d, want %d", wrote, lay.DiskPages)
	}
}

func TestReservedSinkValidation(t *testing.T) {
	if _, err := NewReservedSink(nil, 0, 10); err == nil {
		t.Fatal("empty survivors accepted")
	}
	eng := sim.NewEngine()
	d := newFakeDisk(eng, 100)
	if _, err := NewReservedSink([]raid.Disk{d}, 90, 20); err == nil {
		t.Fatal("insufficient reserved space accepted")
	}
}

func TestReservedSinkWrapsWhenFull(t *testing.T) {
	eng := sim.NewEngine()
	d := newFakeDisk(eng, 100)
	sink, err := NewReservedSink([]raid.Disk{d}, 80, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // 4 × 8 pages > 20-page region
		sink.WriteUnit(0, 0, 8, nil)
	}
	if d.writes != 32 {
		t.Fatalf("writes %d", d.writes)
	}
	if d.lastW < 80 || d.lastW >= 100 {
		t.Fatalf("wrapped write at %d escaped the region", d.lastW)
	}
}

// TestPaceInterval pins the shared background-copy pacing model: the gap
// between unit transfers must hold the stream exactly at the cap.
func TestPaceInterval(t *testing.T) {
	// 1 MB at 100 MB/s = 10 ms between transfers.
	if got, want := PaceInterval(1_000_000, 100), 10*sim.Millisecond; got != want {
		t.Fatalf("PaceInterval(1MB, 100MB/s) = %v, want %v", got, want)
	}
	// 256 KiB at 10 MB/s (the paper's MD cap) ≈ 26.2 ms.
	got := PaceInterval(256<<10, 10)
	want := sim.Time(float64(256<<10) / 10e6 * float64(sim.Second))
	if got != want {
		t.Fatalf("PaceInterval(256KiB, 10MB/s) = %v, want %v", got, want)
	}
	// A cap too small for the clock saturates instead of wrapping to a
	// negative (past) gap; CheckPace is what rejects it up front.
	if got := PaceInterval(64<<10, 1e-300); got != sim.Horizon {
		t.Fatalf("PaceInterval(64KiB, 1e-300MB/s) = %v, want sim.Horizon", got)
	}
	if CheckPace(64<<10, 1e-300) == nil || CheckPace(64<<10, 10) != nil || CheckPace(64<<10, 0) != nil {
		t.Fatal("CheckPace must reject only caps that pace past sim.Horizon")
	}
}

// TestRebuildUnitSteadyStateZeroAllocs pins the rebuilder's one in-flight
// unit record: once warmed, reading a unit from the survivors, writing the
// regenerated unit and pacing the next allocate nothing.
func TestRebuildUnitSteadyStateZeroAllocs(t *testing.T) {
	lay := raid.Layout{Level: raid.RAID5, Disks: 5, UnitPages: 16, DiskPages: 16 * 200}
	eng, arr, _ := newArray(t, lay)
	arr.FailDisk(2)
	rb, err := New(eng, arr, &SpareSink{Disk: newFakeDisk(eng, lay.DiskPages)}, 10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	unit := stripeStepper(t, eng, func() int64 { return rb.Stats().UnitsRebuilt })
	rb.Start(0)
	for i := 0; i < 4; i++ {
		unit()
	}
	if n := testing.AllocsPerRun(100, unit); n != 0 {
		t.Errorf("rebuild unit: %v allocations, want 0", n)
	}
	eng.Run()
	if st := rb.Stats(); rb.Running() || st.UnitsRebuilt != int64(lay.Stripes()) {
		t.Fatalf("rebuild did not complete: running %v, %d of %d units", rb.Running(), st.UnitsRebuilt, lay.Stripes())
	}
}
