package rebuild

import (
	"testing"

	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
)

func scrubLayout() raid.Layout {
	return raid.Layout{Level: raid.RAID5, Disks: 4, UnitPages: 8, DiskPages: 64}
}

func runScrub(t *testing.T, eng *sim.Engine, arr *raid.Array) *Scrubber {
	t.Helper()
	sc, err := NewScrub(eng, arr, 100, 4096)
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

func TestCleanPassReadsEverythingRepairsNothing(t *testing.T) {
	lay := scrubLayout()
	eng, arr, _ := newArray(t, lay)
	done := false
	sc, err := NewScrub(eng, arr, 100, 4096)
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
}

// TestStartIsIdempotentWhileRunning checks a double Start through the
// scrubber's own Stats: the pass scans each stripe once.
func TestStartIsIdempotentWhileRunning(t *testing.T) {
	lay := scrubLayout()
	eng, arr, _ := newArray(t, lay)
	sc, err := NewScrub(eng, arr, 100, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sc.Start(0)
	sc.Start(0) // second Start must not double-schedule the walk
	eng.Run()
	if want := int64(lay.Stripes()); sc.Stats().StripesScanned != want {
		t.Fatalf("scanned %d stripes, want %d — double Start double-walked", sc.Stats().StripesScanned, want)
	}
}

func TestRepairsClearDefectsInPlace(t *testing.T) {
	lay := scrubLayout()
	eng, arr, fakes := newArray(t, lay)
	// Two latent pages on disk 1's unit of stripe 0, one corrupt page on
	// disk 3's unit of stripe 2 — each stripe has one bad member, within
	// RAID5's redundancy.
	fakes[1].latent[0] = true
	fakes[1].latent[3] = true
	fakes[3].corrupt[lay.UnitPage(2)+1] = true
	st := runScrub(t, eng, arr).Stats()
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
	eng, arr, fakes := newArray(t, scrubLayout())
	// Two bad members on the same RAID5 stripe exceed the single-parity
	// budget: both are counted unrecoverable and neither is rewritten.
	fakes[0].latent[0] = true
	fakes[2].latent[0] = true
	st := runScrub(t, eng, arr).Stats()
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
	eng, arr, fakes := newArray(t, lay)
	// Member 2 is mid-GC for the whole run, so every stripe backs off
	// maxGCRetries times and is then scrubbed anyway.
	fakes[2].gcUntil = sim.Time(1 << 62)
	st := runScrub(t, eng, arr).Stats()
	if want := int64(lay.Stripes() * maxGCRetries); st.GCBackoffs != want {
		t.Fatalf("GC backoffs = %d, want %d (%d bounded retries per stripe)", st.GCBackoffs, want, maxGCRetries)
	}
	if want := int64(lay.Stripes()); st.StripesScanned != want {
		t.Fatalf("scanned %d stripes, want %d — backoff must not skip stripes", st.StripesScanned, want)
	}
}

func TestGCBackoffWaitsOutShortGC(t *testing.T) {
	eng, arr, fakes := newArray(t, scrubLayout())
	// GC ends between the first retry (at gcBackoff) and the second (at
	// gcBackoff + 2·gcBackoff, the backoff doubling): the first stripe
	// defers twice, then the pass sees an idle array.
	fakes[1].gcUntil = gcBackoff + gcBackoff/2
	sc := runScrub(t, eng, arr)
	if got := sc.Stats().GCBackoffs; got != 2 {
		t.Fatalf("GC backoffs = %d, want 2; the doubled retry should have found GC over", got)
	}
}

func TestYieldsToForegroundLoad(t *testing.T) {
	lay := scrubLayout()
	eng, arr, fakes := newArray(t, lay)
	// Member 0 reports a permanent backlog past the yield threshold: every
	// stripe yields the bounded number of times, then proceeds.
	fakes[0].backlog = 5 * yieldBacklog
	st := runScrub(t, eng, arr).Stats()
	if want := int64(lay.Stripes() * maxYields); st.Yields != want {
		t.Fatalf("yields = %d, want %d (%d bounded yields per stripe)", st.Yields, want, maxYields)
	}
	if want := int64(lay.Stripes()); st.StripesScanned != want {
		t.Fatalf("scanned %d stripes, want %d — yielding must not skip stripes", st.StripesScanned, want)
	}
}

// TestScrubStripeSteadyStateZeroAllocs pins the scrubber's one in-flight
// stripe record: once warmed, reading a stripe from every member and
// repairing its one bad unit in place allocate nothing.
func TestScrubStripeSteadyStateZeroAllocs(t *testing.T) {
	lay := raid.Layout{Level: raid.RAID5, Disks: 4, UnitPages: 8, DiskPages: 8 * 300}
	eng, arr, fakes := newArray(t, lay)
	for st := 0; st < lay.Stripes(); st++ {
		f := fakes[st%lay.Disks]
		if st%2 == 0 {
			f.latent[lay.UnitPage(st)] = true
		} else {
			f.corrupt[lay.UnitPage(st)+1] = true
		}
	}
	sc, err := NewScrub(eng, arr, 100, 4096)
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
