package gcsteering

import (
	"bytes"
	"testing"

	"gcsteering/internal/sim"
)

// crashTrace generates the shared write-heavy workload the crash tests
// replay (Fin1 is ~77% writes — plenty of stripe writes in flight at any
// mid-trace instant).
func crashTrace(t *testing.T, cfg Config, reqs int) Trace {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.GenerateWorkload("Fin1", reqs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// replayCut builds a system from cfg and replays tr through it, power cut
// included when cfg sets one.
func replayCut(t *testing.T, cfg Config, tr Trace) (*Results, error) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Replay(tr)
}

// crashSweepInstants are the power-cut instants (ms) the pinned sweeps
// use: spread across the trace so cuts land in different write mixes.
var crashSweepInstants = []float64{3, 7, 15, 31}

// TestPowerLossJournalOnSweep pins the tentpole guarantee: with the intent
// journal on, a power loss injected mid-stripe-write leaves zero
// inconsistent stripes after the mount-time resync, across a sweep of
// crash instants. Checksums stay on so any stripe the resync missed would
// surface as a post-crash checksum error.
func TestPowerLossJournalOnSweep(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	cfg.Checksums = true
	cfg.IntentJournal = true
	tr := crashTrace(t, cfg, 2000)
	sawDirty := false
	for _, at := range crashSweepInstants {
		c := cfg
		c.PowerLossAtMs = at
		res, err := replayCut(t, c, tr)
		if err != nil {
			t.Fatalf("crash at %vms: %v", at, err)
		}
		cr := res.Crash
		if !cr.Enabled || !cr.Journaled {
			t.Fatalf("crash at %vms: stats not marked enabled/journaled: %+v", at, cr)
		}
		if cr.DirtyStripes > 0 {
			sawDirty = true
		}
		// The journal's write-ahead invariant: every inconsistent stripe
		// was in the dirty list, so the scoped resync found every one.
		if cr.ResyncFound != int64(cr.InconsistentStripes) {
			t.Fatalf("crash at %vms: resync found %d of %d inconsistent stripes",
				at, cr.ResyncFound, cr.InconsistentStripes)
		}
		// The resync walked only the dirty list, not the whole array.
		if cr.ResyncStripesWalked != int64(cr.DirtyStripes) {
			t.Fatalf("crash at %vms: walked %d stripes, dirty list had %d",
				at, cr.ResyncStripesWalked, cr.DirtyStripes)
		}
		// Zero inconsistency visible after resync: serving was gated on the
		// walk, so no post-crash read can hit a torn page.
		if res.Integrity.ChecksumErrors != 0 {
			t.Fatalf("crash at %vms: %d post-resync checksum errors (torn stripe survived resync)",
				at, res.Integrity.ChecksumErrors)
		}
		if cr.ServedDuringResync {
			t.Fatalf("crash at %vms: journal-on run served during resync", at)
		}
	}
	if !sawDirty {
		t.Fatal("no crash instant in the sweep landed mid-stripe-write; sweep proves nothing")
	}
}

// TestPowerLossJournalOffSweep pins the converse: without the journal the
// remount has no scope information — only the full-array walk finds the
// (nonzero, somewhere in the sweep) inconsistent stripes, and the array
// serves while the walk runs.
func TestPowerLossJournalOffSweep(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	cfg.IntentJournal = false
	tr := crashTrace(t, cfg, 2000)
	lay := int64(0)
	sawInconsistent := false
	for _, at := range crashSweepInstants {
		c := cfg
		c.PowerLossAtMs = at
		res, err := replayCut(t, c, tr)
		if err != nil {
			t.Fatalf("crash at %vms: %v", at, err)
		}
		cr := res.Crash
		if cr.Journaled {
			t.Fatalf("crash at %vms: journal-off run marked journaled", at)
		}
		if !cr.ServedDuringResync {
			t.Fatalf("crash at %vms: journal-off run gated serving on the full walk", at)
		}
		if lay == 0 {
			lay = cr.ResyncStripesWalked
		}
		// The walk covers every stripe of the array — the full-scrub cost
		// the journal would have avoided — and still finds everything.
		if cr.ResyncStripesWalked != lay || cr.ResyncStripesWalked <= int64(cr.DirtyStripes) {
			t.Fatalf("crash at %vms: walked %d stripes (dirty %d, first sweep walked %d); want a full-array walk",
				at, cr.ResyncStripesWalked, cr.DirtyStripes, lay)
		}
		if cr.ResyncFound != int64(cr.InconsistentStripes) {
			t.Fatalf("crash at %vms: full walk found %d of %d inconsistent stripes",
				at, cr.ResyncFound, cr.InconsistentStripes)
		}
		if cr.InconsistentStripes > 0 {
			sawInconsistent = true
		}
	}
	if !sawInconsistent {
		t.Fatal("no crash instant left an inconsistent stripe; the write hole never opened")
	}
}

// TestPowerLossDeterministic pins reproducibility: the same crash config
// yields byte-identical traces and identical recovery accounting.
func TestPowerLossDeterministic(t *testing.T) {
	run := func() (CrashStats, string) {
		cfg := smallConfig(SchemeLGC)
		cfg.IntentJournal = true
		cfg.PowerLossAtMs = 9
		var buf bytes.Buffer
		cfg.Trace = NewTracer(&buf)
		tr := crashTrace(t, cfg, 1200)
		res, err := replayCut(t, cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return res.Crash, buf.String()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 {
		t.Fatalf("crash stats diverged:\n%+v\n%+v", c1, c2)
	}
	if t1 != t2 {
		t.Fatal("crash-run traces diverged between identical runs")
	}
	if c1.TornPages == 0 && c1.DirtyStripes == 0 {
		t.Fatal("crash at 9ms interrupted nothing; determinism run proves nothing")
	}
}

// TestPowerLossObserveRequests: the request hook spans the cut. Every
// request fires at most once, under its trace index, and the requests
// served after the remount fire under theirs.
func TestPowerLossObserveRequests(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	cfg.IntentJournal = true
	cfg.PowerLossAtMs = 9
	tr := crashTrace(t, cfg, 1200)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	sys.ObserveRequests(func(seq, latNs int64, rejected bool) {
		if seq < 0 || seq >= int64(len(tr)) || seen[seq] {
			t.Fatalf("seq %d out of range or fired twice", seq)
		}
		seen[seq] = true
	})
	res, err := sys.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	cut := sim.Time(cfg.PowerLossAtMs * float64(sim.Millisecond))
	pre, post := 0, 0
	for seq := range seen {
		if tr[seq].Timestamp > cut {
			post++
		} else {
			pre++
		}
	}
	if pre == 0 || uint64(post) != res.Latency.Count {
		t.Fatalf("hook fired %d pre-cut and %d post-cut requests; %d served after the remount",
			pre, post, res.Latency.Count)
	}
}

// TestPowerLossKnobsInert pins the zero-cost guarantee: with PowerLossAtMs
// = 0, Replay is a plain replay and the crash-consistency knobs change
// nothing — the trace is byte identical to a run without them.
func TestPowerLossKnobsInert(t *testing.T) {
	run := func(journal bool, resync float64) string {
		cfg := smallConfig(SchemeLGC)
		cfg.PowerLossAtMs = 0
		cfg.IntentJournal = journal
		cfg.ResyncMBps = resync
		var buf bytes.Buffer
		cfg.Trace = NewTracer(&buf)
		tr := crashTrace(t, cfg, 800)
		if _, err := replayCut(t, cfg, tr); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	base := run(false, 0)
	if withKnobs := run(true, 500); withKnobs != base {
		t.Fatal("IntentJournal/ResyncMBps changed the trace without a power loss")
	}
}

// TestPowerLossDuringRebuild pins the crash-during-rebuild path: a member
// fails before the cut, so the remounted array comes back degraded, the
// rebuild restarts from zero, and recovery still closes every torn stripe.
func TestPowerLossDuringRebuild(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	cfg.Checksums = true
	cfg.IntentJournal = true
	cfg.PowerLossAtMs = 12
	cfg.Fault = FaultPlan{
		Failures:      []DiskFault{{Disk: 1, AtMs: 4}},
		RepairDelayMs: 1,
		RebuildMBps:   50,
		RebuildTarget: RebuildToSpare,
	}
	tr := crashTrace(t, cfg, 2000)
	res, err := replayCut(t, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crash.Enabled {
		t.Fatal("crash stats missing")
	}
	// The pre-cut failure re-applies at the remount and the rebuild runs
	// again from nothing (its progress died with the power).
	if res.Fault.Failures != 1 || res.Fault.Rebuilds != 1 {
		t.Fatalf("post-crash fault stats = %+v, want the failure re-applied and one rebuild", res.Fault)
	}
	if res.Crash.ResyncFound != int64(res.Crash.InconsistentStripes) {
		t.Fatalf("resync found %d of %d inconsistent stripes",
			res.Crash.ResyncFound, res.Crash.InconsistentStripes)
	}
	if res.Integrity.ChecksumErrors != 0 {
		t.Fatalf("%d post-resync checksum errors", res.Integrity.ChecksumErrors)
	}
}
