package gcsteering

import (
	"testing"
)

// faultConfig is smallConfig plus a fault plan.
func faultConfig(scheme Scheme, plan FaultPlan) Config {
	cfg := smallConfig(scheme)
	cfg.Fault = plan
	return cfg
}

func replayPlan(t *testing.T, cfg Config, wl string, reqs int) (*System, *Results) {
	t.Helper()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.GenerateWorkload(wl, reqs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

func TestFaultPlanValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault.Failures = []DiskFault{{Disk: 99, AtMs: 1}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("failure of a non-existent disk accepted")
	}
	cfg = DefaultConfig()
	cfg.Fault.UREPerPageRead = 2
	if err := cfg.Validate(); err == nil {
		t.Fatal("URE probability above 1 accepted")
	}
	cfg = DefaultConfig()
	cfg.Fault.Slowdowns = []DiskSlowdown{{Disk: 0, Channel: -1, DurationMs: 0}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("zero-duration slowdown accepted")
	}
}

func TestReplayWithFaultsLifecycle(t *testing.T) {
	cfg := faultConfig(SchemeLGC, FaultPlan{
		Failures:      []DiskFault{{Disk: 2, AtMs: 100}},
		RepairDelayMs: 20,
		RebuildMBps:   100,
		RebuildTarget: RebuildToSpare,
	})
	sys, res := replayPlan(t, cfg, "Fin1", 1500)
	f := res.Fault
	if !f.Injected {
		t.Fatal("fault stats not marked Injected")
	}
	if f.Failures != 1 || f.ArrayFailures != 0 || f.Rebuilds != 1 {
		t.Fatalf("fault stats = %+v, want 1 absorbed failure and 1 rebuild", f)
	}
	if sys.arr.Degraded() {
		t.Fatal("array still degraded after automatic repair")
	}
	if f.WindowOfVulnerability <= 0 || f.RebuildTime <= 0 || f.RebuildTime > f.WindowOfVulnerability {
		t.Fatalf("WOV %v / rebuild %v inconsistent", f.WindowOfVulnerability, f.RebuildTime)
	}
	if f.DegradedLatency.Count == 0 {
		t.Fatal("no degraded-mode requests recorded despite a mid-trace failure")
	}
	if f.DegradedLatency.Count >= res.Latency.Count {
		t.Fatal("every request counted as degraded despite repair mid-trace")
	}
	if f.DataLossEvents != 0 {
		t.Fatalf("data loss %d reported without UREs or a second failure", f.DataLossEvents)
	}
}

func TestReplayWithFaultsSurfacesUREs(t *testing.T) {
	cfg := faultConfig(SchemeLGC, FaultPlan{UREPerPageRead: 2e-3})
	sys, res := replayPlan(t, cfg, "HPC_R", 1500)
	f := res.Fault
	if f.UREs == 0 {
		t.Fatal("no latent sector errors surfaced at a 2e-3/page rate")
	}
	// A healthy RAID5 repairs every URE from parity: the reads degrade but
	// nothing is lost.
	if f.URERepaired != f.UREs || f.DataLossEvents != 0 {
		t.Fatalf("UREs=%d repaired=%d loss=%d, want all repaired", f.UREs, f.URERepaired, f.DataLossEvents)
	}
	if sys.arr.Stats().DegradedReads == 0 {
		t.Fatal("URE repairs did not register as degraded reads")
	}
}

// TestDoubleFaultRAID6MidRebuild loses a second disk while the first
// rebuild is running: double parity absorbs both, reads keep being served,
// and the controller rebuilds the two disks back to back.
func TestDoubleFaultRAID6MidRebuild(t *testing.T) {
	cfg := faultConfig(SchemeLGC, FaultPlan{
		Failures: []DiskFault{
			{Disk: 1, AtMs: 100},
			{Disk: 4, AtMs: 220},
		},
		RepairDelayMs: 20,
		// Slow enough that the second failure lands mid-first-rebuild.
		RebuildMBps:   20,
		RebuildTarget: RebuildToSpare,
	})
	cfg.Level = RAID6
	cfg.Disks = 6
	sys, res := replayPlan(t, cfg, "Fin1", 1500)
	f := res.Fault
	if f.Failures != 2 || f.ArrayFailures != 0 {
		t.Fatalf("fault stats = %+v, want both failures absorbed", f)
	}
	if f.Rebuilds != 2 {
		t.Fatalf("rebuilds = %d, want 2 (queued one at a time)", f.Rebuilds)
	}
	if sys.arr.Degraded() {
		t.Fatal("RAID6 array still degraded after both repairs")
	}
	if f.DataLossEvents != 0 {
		t.Fatalf("RAID6 double fault reported %d data-loss events", f.DataLossEvents)
	}
	if res.Latency.Count == 0 || res.ReadLatency.Count == 0 {
		t.Fatal("no requests served through the double-fault window")
	}
}

// TestDoubleFaultRAID5ReportsDataLoss runs the same scenario on RAID5: the
// second loss exceeds single parity, so the run completes but the results
// carry an array failure (data loss) instead of a successful recovery.
func TestDoubleFaultRAID5ReportsDataLoss(t *testing.T) {
	cfg := faultConfig(SchemeLGC, FaultPlan{
		Failures: []DiskFault{
			{Disk: 1, AtMs: 100},
			{Disk: 4, AtMs: 220},
		},
		RepairDelayMs: 20,
		RebuildMBps:   2, // far too slow to finish before the second loss
		RebuildTarget: RebuildToSpare,
	})
	_, res := replayPlan(t, cfg, "Fin1", 1500)
	f := res.Fault
	if f.Failures != 1 || f.ArrayFailures != 1 {
		t.Fatalf("fault stats = %+v, want 1 absorbed + 1 array failure", f)
	}
	if f.DataLossEvents == 0 {
		t.Fatal("RAID5 double fault reported no data loss")
	}
	// The simulation records the array loss and keeps running (the verdict
	// is in the results); only the first failure is ever rebuilt.
	if f.Rebuilds > 1 {
		t.Fatalf("rebuilds = %d after an array failure", f.Rebuilds)
	}
	if res.Latency.Count == 0 {
		t.Fatal("run did not complete the trace after the array failure")
	}
}

func TestReplayWithFaultsDeterministic(t *testing.T) {
	run := func() *Results {
		cfg := faultConfig(SchemeSteering, FaultPlan{
			Failures:       []DiskFault{{Disk: 2, AtMs: 150}},
			Slowdowns:      []DiskSlowdown{{Disk: 0, Channel: -1, StartMs: 0, DurationMs: 400, ExtraPerOpUs: 30}},
			UREPerPageRead: 1e-4,
			RepairDelayMs:  20,
			RebuildMBps:    100,
			RebuildTarget:  RebuildToSpare,
		})
		cfg.Staging = StagingDedicated
		_, res := replayPlan(t, cfg, "prxy_0", 1500)
		return res
	}
	a, b := run(), run()
	if a.Latency != b.Latency || a.Fault != b.Fault {
		t.Fatalf("fixed-seed fault runs diverged:\n%+v\n%+v", a.Fault, b.Fault)
	}
	if a.Fault.WindowOfVulnerability <= 0 {
		t.Fatal("no vulnerability window measured")
	}
}

func TestSlowdownStretchesLatency(t *testing.T) {
	base := smallConfig(SchemeLGC)
	_, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	plain := func() *Results {
		sys, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sys.GenerateWorkload("HPC_R", 1000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	slowed := func() *Results {
		cfg := base
		cfg.Fault = FaultPlan{Slowdowns: []DiskSlowdown{
			{Disk: 0, Channel: -1, StartMs: 0, DurationMs: 1e6, ExtraPerOpUs: 500},
		}}
		_, res := replayPlan(t, cfg, "HPC_R", 1000)
		return res
	}()
	if slowed.Latency.Mean <= plain.Latency.Mean {
		t.Fatalf("fail-slow member did not raise mean latency: %v vs %v",
			slowed.Latency.Mean, plain.Latency.Mean)
	}
}
