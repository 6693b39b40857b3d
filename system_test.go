package gcsteering

import (
	"math"
	"reflect"
	"testing"

	"gcsteering/internal/core"
	"gcsteering/internal/raid"
)

// Helpers bridging the white-box tests to internal/core types.
func corePageKey(disk, page int32) core.PageKey {
	return core.PageKey{Disk: disk, Page: page}
}

func coreStageLoc(dev, page int32) core.StageLoc {
	return core.StageLoc{Dev0: dev, Page0: page, Dev1: core.NoMirror}
}

// smallConfig shrinks the flash geometry so facade tests run fast.
func smallConfig(scheme Scheme) Config {
	cfg := DefaultConfig()
	cfg.Scheme = scheme
	cfg.Flash.Blocks = 128
	cfg.Flash.PagesPerBlock = 64
	cfg.Flash.OverProvision = 0.20
	cfg.GCLowWater = 4
	cfg.GCHighWater = 10
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"1 disk", func(c *Config) { c.Disks = 1 }},
		// Both used to pass Validate: the unknown level then panicked in
		// Capacity and GenerateWorkload, and RAID6 on 3 disks failed in New.
		{"unknown level", func(c *Config) { c.Level = Level(99) }},
		{"RAID6 on 3 disks", func(c *Config) { c.Level = RAID6; c.Disks = 3 }},
		// Used to divide by zero inside Validate.
		{"zero page size", func(c *Config) { c.Flash.PageSize = 0 }},
		{"non-page stripe unit", func(c *Config) { c.StripeUnitKB = 3 }},
		{"huge reservation", func(c *Config) { c.ReservedFrac = 0.9 }},
		{"reserved staging without reservation", func(c *Config) {
			c.Scheme = SchemeSteering
			c.Staging = StagingReserved
			c.ReservedFrac = 0
		}},
		{"staging rebuild without staging space", func(c *Config) {
			c.Scheme = SchemeLGC
			c.Fault.RebuildTarget = RebuildToStaging
		}},
		// Every ms/µs field must convert to engine nanoseconds inside the
		// simulation horizon: past it the conversion overflows.
		{"DeadlineUs past the horizon", func(c *Config) { c.DeadlineUs = 1e16 }},
		{"PowerLossAtMs past the horizon", func(c *Config) { c.PowerLossAtMs = 1e13 }},
		{"GCOverheadMs past the horizon", func(c *Config) { c.GCOverheadMs = 1e13 }},
		{"RepairDelayMs past the horizon", func(c *Config) { c.Fault.RepairDelayMs = 1e13 }},
		{"failure AtMs past the horizon", func(c *Config) {
			c.Fault.Failures = []DiskFault{{Disk: 0, AtMs: 1e13}}
		}},
		{"slowdown StartMs past the horizon", func(c *Config) {
			c.Fault.Slowdowns = []DiskSlowdown{{Disk: 0, Channel: -1, StartMs: 1e13, DurationMs: 1, ExtraPerOpUs: 1}}
		}},
		{"slowdown DurationMs past the horizon", func(c *Config) {
			c.Fault.Slowdowns = []DiskSlowdown{{Disk: 0, Channel: -1, DurationMs: 1e13, ExtraPerOpUs: 1}}
		}},
		{"slowdown ExtraPerOpUs past the horizon", func(c *Config) {
			c.Fault.Slowdowns = []DiskSlowdown{{Disk: 0, Channel: -1, DurationMs: 1, ExtraPerOpUs: 1e16}}
		}},
		{"NaN DeadlineUs", func(c *Config) { c.DeadlineUs = math.NaN() }},
		// A NaN ReservedFrac used to pass and then panic inside New.
		{"NaN ReservedFrac", func(c *Config) { c.ReservedFrac = math.NaN() }},
		// These used to skip the warm-up silently.
		{"NaN PrefillOverwrite", func(c *Config) { c.PrefillOverwrite = math.NaN() }},
		{"+Inf PrefillOverwrite", func(c *Config) { c.PrefillOverwrite = math.Inf(1) }},
		{"-Inf PrefillOverwrite", func(c *Config) { c.PrefillOverwrite = math.Inf(-1) }},
		{"negative PrefillOverwrite", func(c *Config) { c.PrefillOverwrite = -0.5 }},
	} {
		bad := cfg
		tc.set(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestBandwidthCapsValidated pins the pacing bound: a cap so small that
// one transfer's interval overflows engine time used to wrap to a negative
// gap and run uncapped, and a NaN or infinite cap paced nothing at all.
// Caps <= 0 still mean "off" or "default".
func TestBandwidthCapsValidated(t *testing.T) {
	caps := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"Fault.RebuildMBps", func(c *Config, v float64) { c.Fault.RebuildMBps = v }},
		{"ScrubMBps", func(c *Config, v float64) { c.ScrubMBps = v }},
	}
	for _, f := range caps {
		for _, v := range []float64{1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig()
			f.set(&cfg, v)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			}
		}
		for _, v := range []float64{-1, 0, 1e-3, 10, 1e300} {
			cfg := DefaultConfig()
			f.set(&cfg, v)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s = %v rejected: %v", f.name, v, err)
			}
		}
	}
}

func TestSchemeAndStagingStrings(t *testing.T) {
	if SchemeLGC.String() != "LGC" || SchemeGGC.String() != "GGC" || SchemeSteering.String() != "GC-Steering" {
		t.Fatal("scheme names")
	}
	if StagingReserved.String() != "Reserved" || StagingDedicated.String() != "Dedicated" {
		t.Fatal("staging names")
	}
}

func TestProfilesExposed(t *testing.T) {
	if len(Profiles()) != 8 {
		t.Fatalf("%d profiles", len(Profiles()))
	}
	if _, ok := ProfileByName("HPC_W"); !ok {
		t.Fatal("HPC_W missing")
	}
}

func TestReplayAllSchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeLGC, SchemeGGC, SchemeSteering} {
		sys, err := New(smallConfig(scheme))
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		tr, err := sys.GenerateWorkload("Fin1", 3000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency.Count != 3000 {
			t.Fatalf("%v: %d responses, want 3000", scheme, res.Latency.Count)
		}
		if res.Latency.Mean <= 0 {
			t.Fatalf("%v: zero mean latency", scheme)
		}
		if res.ReadLatency.Count+res.WriteLatency.Count != res.Latency.Count {
			t.Fatalf("%v: split latencies do not add up", scheme)
		}
		if scheme == SchemeSteering && res.Steering.RedirectedWrites == 0 && res.GCEpisodes > 0 {
			t.Fatalf("%v: GC happened but nothing was steered", scheme)
		}
		if res.String() == "" {
			t.Fatal("empty report")
		}
	}
}

// TestConfigGenerateWorkloadMatchesSystem pins the invariant the harness's
// single build per cell relies on: a trace generated from a Config before
// any system exists equals the one the built system generates, and
// Config.Capacity equals the built array's capacity, for every Config
// shape the experiment grids build.
func TestConfigGenerateWorkloadMatchesSystem(t *testing.T) {
	memo := new(Warmup)
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"RAID5, 5 disks", func(*Config) {}},
		{"7 disks", func(c *Config) { c.Disks = 7 }},
		{"RAID6, 6 disks", func(c *Config) {
			c.Level = RAID6
			c.Disks = 6
		}},
		{"dedicated staging", func(c *Config) {
			c.Scheme = SchemeSteering
			c.Staging = StagingDedicated
		}},
		{"ReservedFrac 0.30", func(c *Config) { c.ReservedFrac = 0.30 }},
	} {
		cfg := DefaultConfig()
		tc.set(&cfg)
		sys, err := memo.New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if built := int64(sys.arr.Layout().LogicalPages()) * int64(cfg.Flash.PageSize); cfg.Capacity() != built {
			t.Errorf("%s: Config.Capacity %d, built array holds %d", tc.name, cfg.Capacity(), built)
		}
		want, err := sys.GenerateWorkload("HPC_W", 300)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cfg.GenerateWorkload("HPC_W", 300)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Config.GenerateWorkload differs from System.GenerateWorkload", tc.name)
		}
	}
}

func TestGenerateWorkloadUnknownProfile(t *testing.T) {
	sys, err := New(smallConfig(SchemeLGC))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.GenerateWorkload("nope", 10); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestReplayRejectsEmptyAndInvalid(t *testing.T) {
	sys, err := New(smallConfig(SchemeLGC))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Replay(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := Trace{{Timestamp: 5, Size: 4096}, {Timestamp: 1, Size: 4096}}
	if _, err := sys.Replay(bad); err == nil {
		t.Fatal("unordered trace accepted")
	}
}

// rebuildPlan fails member 2 at time zero and rebuilds it at mbps into
// target — the Fig. 11 scenario as a fault plan.
func rebuildPlan(mbps float64, target RebuildTarget) FaultPlan {
	return FaultPlan{
		Failures:      []DiskFault{{Disk: 2, AtMs: 0}},
		RebuildMBps:   mbps,
		RebuildTarget: target,
	}
}

func TestRebuildPlanBothTargets(t *testing.T) {
	for _, tc := range []struct {
		scheme  Scheme
		staging StagingKind
		target  RebuildTarget
	}{
		{SchemeLGC, StagingReserved, RebuildToSpare},
		{SchemeSteering, StagingReserved, RebuildToStaging},
		{SchemeSteering, StagingDedicated, RebuildToStaging},
		{SchemeSteering, StagingDedicated, RebuildToSpare},
	} {
		cfg := smallConfig(tc.scheme)
		cfg.Staging = tc.staging
		cfg.Fault = rebuildPlan(10, tc.target)
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sys.GenerateWorkload("hm_0", 2000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Replay(tr)
		if err != nil {
			t.Fatalf("%v/%v/%v: %v", tc.scheme, tc.staging, tc.target, err)
		}
		// Only requests arriving during the reconstruction window are
		// degraded (Fig. 11's measurement), so the count is bounded by, and
		// usually below, the trace length.
		f := res.Fault
		if f.DegradedLatency.Count == 0 || f.DegradedLatency.Count > 2000 {
			t.Fatalf("%v/%v/%v: %d degraded responses", tc.scheme, tc.staging, tc.target, f.DegradedLatency.Count)
		}
		if f.Rebuilds != 1 || f.RebuildTime <= 0 {
			t.Fatalf("%v/%v/%v: rebuild never completed: %+v", tc.scheme, tc.staging, tc.target, f)
		}
	}
}

func TestRebuildPlanValidation(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	cfg.Fault = rebuildPlan(10, RebuildToSpare)
	cfg.Fault.Failures[0].Disk = 99
	if _, err := New(cfg); err == nil {
		t.Fatal("bad disk id accepted")
	}
	cfg.Fault.Failures[0].Disk = 0
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Replay(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestRebuildToStagingDedicatedUsesStagingSSD pins §III-D case ② under
// dedicated staging: the staging SSD is the replacement, so the rebuild
// programs the failed member's contents onto it and installs it in the
// failed slot.
func TestRebuildToStagingDedicatedUsesStagingSSD(t *testing.T) {
	cfg := smallConfig(SchemeSteering)
	cfg.Staging = StagingDedicated
	cfg.Fault = rebuildPlan(20, RebuildToStaging)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.GenerateWorkload("hm_0", 500)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Replay(tr); err != nil {
		t.Fatal(err)
	}
	if sys.arr.Disks()[2] != raid.Disk(sys.spare) {
		t.Fatal("staging SSD not installed in the failed slot")
	}
	if got, want := sys.spare.Stats().PagesWritten, int64(cfg.diskPages()); got < want {
		t.Fatalf("staging SSD programmed %d pages, want at least the member's %d", got, want)
	}
}

// TestRebuildToStagingDedicatedDoubleFailure: the staging SSD replaces
// only the first failed member. Once it is a member it hands out no more
// staging slots, and the second rebuild takes a fresh replacement instead
// of installing the same device in a second slot.
func TestRebuildToStagingDedicatedDoubleFailure(t *testing.T) {
	cfg := smallConfig(SchemeSteering)
	cfg.Level = RAID6
	cfg.Disks = 6
	cfg.Staging = StagingDedicated
	cfg.Fault = FaultPlan{
		Failures:      []DiskFault{{Disk: 1, AtMs: 0}, {Disk: 4, AtMs: 5}},
		RebuildMBps:   20,
		RebuildTarget: RebuildToStaging,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.GenerateWorkload("hm_0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.Rebuilds != 2 || res.Fault.ArrayFailures != 0 || sys.arr.Degraded() {
		t.Fatalf("fault stats = %+v, want both failures rebuilt", res.Fault)
	}
	disks := sys.arr.Disks()
	if disks[1] != raid.Disk(sys.spare) {
		t.Fatal("staging SSD not installed in the first failed slot")
	}
	for i, d := range disks {
		for j := i + 1; j < len(disks); j++ {
			if d == disks[j] {
				t.Fatalf("one device fills slots %d and %d", i, j)
			}
		}
	}
	if _, ok := sys.steer.Staging().AllocWrite(sys.eng.Now(), 0, false); ok {
		t.Fatal("staging SSD still hands out write slots after joining the array")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() float64 {
		sys, err := New(smallConfig(SchemeSteering))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := sys.GenerateWorkload("mds_0", 2000)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different results: %v vs %v", a, b)
	}
}

// TestReclaimFirstBeforeParallelRebuild exercises the paper's §III-D case
// ②: when the staging space serves as the replacement, previously
// redirected write data is reclaimed before reconstruction begins.
func TestReclaimFirstBeforeParallelRebuild(t *testing.T) {
	cfg := smallConfig(SchemeSteering)
	// The failure lands at 2 ms, once the seeded writes below are staged.
	cfg.Fault = rebuildPlan(20, RebuildToStaging)
	cfg.Fault.Failures[0].AtMs = 2
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the staging space with redirected write data: force GC on a
	// member and write through the array while it collects.
	sys.devs[1].ForceGC(sys.eng.Now())
	// Small writes into every stripe unit of the first stripe, so some land
	// on the collecting member whatever the parity rotation.
	unit := int64(cfg.StripeUnitKB) * 1024
	for u := int64(0); u < int64(cfg.Disks); u++ {
		for p := int64(0); p < 8; p++ {
			sys.submit(sys.eng.Now(), Record{Offset: u*unit + p*4096, Size: 4096, Write: true})
		}
	}
	sys.eng.RunFor(2_000_000) // 2ms: writes land, GC still in flight
	if sys.steer.DTable().WriteLen() == 0 {
		t.Skip("no writes were staged in this layout; nothing to exercise")
	}
	tr, err := sys.GenerateWorkload("wdev_0", 500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault.Rebuilds != 1 {
		t.Fatal("rebuild never completed")
	}
	// The reclaim ran inside the degraded window, ahead of the rebuild.
	if res.Fault.WindowOfVulnerability <= res.Fault.RebuildTime {
		t.Fatalf("rebuild started at the failure (WOV %v, rebuild %v): no reclaim ran first",
			res.Fault.WindowOfVulnerability, res.Fault.RebuildTime)
	}
	// After the run everything must be reclaimed (drain on completion).
	if got := sys.steer.DTable().WriteLen(); got != 0 {
		t.Fatalf("%d write entries left after rebuild + drain", got)
	}
}

// TestFailedHomeEntriesKeptDuringRebuild: write entries homed on the failed
// member must survive the rebuild-time drains (their home is gone) and
// still be served from staging.
func TestFailedHomeNotReclaimedWhileDown(t *testing.T) {
	sys, err := New(smallConfig(SchemeSteering))
	if err != nil {
		t.Fatal(err)
	}
	sys.steer.SetFailedHome(3)
	// Draining() must ignore entries homed on member 3.
	sys.steer.DTable().Put(
		corePageKey(3, 10),
		coreStageLoc(0, 99),
		true,
	)
	if sys.steer.Draining() {
		t.Fatal("entries on the failed home counted as reclaimable")
	}
	sys.steer.SetFailedHome(-1)
	if !sys.steer.Draining() {
		t.Fatal("entry not reclaimable after the member returned")
	}
}
