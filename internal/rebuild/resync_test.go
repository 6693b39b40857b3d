package rebuild

import (
	"testing"

	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

// raid6Layout is a 6-member RAID6 of 10 stripes of 16-page units, so a
// resync rewrites both P and Q.
func raid6Layout() raid.Layout {
	return raid.Layout{Level: raid.RAID6, Disks: 6, UnitPages: 16, DiskPages: 160}
}

func runResync(t *testing.T, eng *sim.Engine, arr *raid.Array, stripes []int, inconsistent func(int) bool) ResyncStats {
	t.Helper()
	rs, err := NewResync(eng, arr, 100, 4096, stripes)
	if err != nil {
		t.Fatal(err)
	}
	rs.Inconsistent = inconsistent
	rs.Start(0)
	eng.Run()
	if rs.Running() {
		t.Fatal("resync still running after the event queue drained")
	}
	return rs.Stats()
}

// dataDisk returns a member holding data (neither P nor Q) in stripe st.
func dataDisk(lay raid.Layout, st int) int {
	for d := 0; d < lay.Disks; d++ {
		if d != lay.ParityDisk(st) && d != lay.QDisk(st) {
			return d
		}
	}
	panic("no data member")
}

// checkWrites asserts that exactly the members in want were written, one
// unit each, at stripe st.
func checkWrites(t *testing.T, lay raid.Layout, fakes []*fakeDisk, st int, want ...int) {
	t.Helper()
	for d, f := range fakes {
		wrote := 0
		for _, w := range want {
			if w == d {
				wrote = lay.UnitPages
			}
		}
		if f.writes != wrote {
			t.Errorf("member %d wrote %d pages, want %d", d, f.writes, wrote)
		}
		if wrote > 0 && f.lastW != lay.UnitPage(st) {
			t.Errorf("member %d wrote at page %d, want stripe %d's unit at %d", d, f.lastW, st, lay.UnitPage(st))
		}
	}
}

func TestResyncTornDataAndParityRewritesEachMemberOnce(t *testing.T) {
	lay := raid6Layout()
	eng, arr, fakes := newArray(t, lay)
	const st = 3
	data, p, q := dataDisk(lay, st), lay.ParityDisk(st), lay.QDisk(st)
	fakes[data].corrupt[lay.UnitPage(st)] = true
	fakes[p].corrupt[lay.UnitPage(st)+2] = true
	got := runResync(t, eng, arr, []int{st}, nil)
	// The torn P is also a parity target: it is written once, not twice.
	checkWrites(t, lay, fakes, st, data, p, q)
	if got.Inconsistent != 1 || got.TornUnitsRepaired != 2 || got.PagesWritten != int64(3*lay.UnitPages) {
		t.Fatalf("stats %+v, want 1 inconsistent stripe, 2 torn units, 3 units written", got)
	}
	if len(fakes[data].corrupt) != 0 || len(fakes[p].corrupt) != 0 {
		t.Fatal("torn pages survived the resync")
	}
}

func TestResyncInconsistentStripeRewritesParityOnly(t *testing.T) {
	lay := raid6Layout()
	eng, arr, fakes := newArray(t, lay)
	const st = 7
	got := runResync(t, eng, arr, []int{st}, func(s int) bool { return s == st })
	checkWrites(t, lay, fakes, st, lay.ParityDisk(st), lay.QDisk(st))
	if got.Inconsistent != 1 || got.TornUnitsRepaired != 0 {
		t.Fatalf("stats %+v, want 1 inconsistent stripe and no torn units", got)
	}
}

func TestResyncCleanStripesWriteNothing(t *testing.T) {
	lay := raid6Layout()
	eng, arr, fakes := newArray(t, lay)
	stripes := []int{4, 0, 9}
	got := runResync(t, eng, arr, stripes, func(int) bool { return false })
	checkWrites(t, lay, fakes, 0)
	if got.StripesWalked != 3 || got.Inconsistent != 0 || got.PagesWritten != 0 {
		t.Fatalf("stats %+v, want 3 stripes walked and nothing written", got)
	}
	if want := int64(len(stripes) * lay.Disks * lay.UnitPages); got.PagesRead != want {
		t.Fatalf("pages read %d, want %d (every member's unit of each listed stripe)", got.PagesRead, want)
	}
}

func TestResyncEmptyListCompletesAtStart(t *testing.T) {
	eng, arr, _ := newArray(t, raid6Layout())
	rs, err := NewResync(eng, arr, 100, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	completedAt := sim.Time(-1)
	rs.OnComplete = func(now sim.Time) { completedAt = now }
	rs.Start(5)
	if rs.Running() || completedAt != 5 || eng.Pending() != 0 {
		t.Fatalf("running %v, completed at %v, %d events pending; want an immediate finish at 5",
			rs.Running(), completedAt, eng.Pending())
	}
	if st := rs.Stats(); st.StripesWalked != 0 || st.StartedAt != 5 || st.FinishedAt != 5 {
		t.Fatalf("stats %+v", st)
	}
}

// TestResyncStripeSteadyStateZeroAllocs pins the resync walker's one
// in-flight stripe record: once warmed, reading a stripe and rewriting its
// parity (and its torn unit, on odd stripes; even ones are half-written
// without a torn page) allocate nothing.
func TestResyncStripeSteadyStateZeroAllocs(t *testing.T) {
	lay := raid.Layout{Level: raid.RAID5, Disks: 4, UnitPages: 8, DiskPages: 8 * 300}
	eng, arr, fakes := newArray(t, lay)
	stripes := allStripes(lay)
	for st := range stripes {
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
