package gcsteering

import (
	"bytes"
	"math"
	"testing"
)

// selfHealPlan seeds persistent defects and fails one member mid-trace, so
// a run measures both the scrubber's repairs and the rebuild's URE exposure.
func selfHealPlan() FaultPlan {
	return FaultPlan{
		Failures:        []DiskFault{{Disk: 2, AtMs: 400}},
		LatentPageRate:  2e-3,
		CorruptPageRate: 1e-3,
		RepairDelayMs:   10,
		RebuildMBps:     200,
		RebuildTarget:   RebuildToSpare,
	}
}

func TestMalformedConfigsErrorNotPanic(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Fault.UREPerPageRead = math.NaN() },
		func(c *Config) { c.Fault.LatentPageRate = math.NaN() },
		func(c *Config) { c.Fault.LatentPageRate = -0.5 },
		func(c *Config) { c.Fault.CorruptPageRate = 1.0 },
		func(c *Config) { c.Fault.Slowdowns = []DiskSlowdown{{Disk: 99, DurationMs: 1}} },
		func(c *Config) { c.Fault.Slowdowns = []DiskSlowdown{{Disk: 0, Channel: -2, DurationMs: 1}} },
		func(c *Config) {
			c.Fault.Slowdowns = []DiskSlowdown{{Disk: 0, Channel: c.Flash.Channels, DurationMs: 1}}
		},
		func(c *Config) { c.Fault.Slowdowns = []DiskSlowdown{{Disk: 0, StartMs: -1, DurationMs: 1}} },
		func(c *Config) { c.ScrubMBps = math.NaN() },
		func(c *Config) { c.Level = RAID0; c.HedgedReads = true },
	}
	for i, mutate := range cases {
		cfg := smallConfig(SchemeLGC)
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: malformed config accepted", i)
		}
	}
}

func TestScrubRepairsSeededDefects(t *testing.T) {
	cfg := faultConfig(SchemeLGC, FaultPlan{
		LatentPageRate:  2e-3,
		CorruptPageRate: 1e-3,
	})
	cfg.Checksums = true
	cfg.ScrubMBps = 50
	_, res := replayPlan(t, cfg, "Fin1", 2000)
	if !res.ScrubEnabled {
		t.Fatal("scrub did not run")
	}
	if res.Scrub.Passes != 1 {
		t.Fatalf("passes = %d, want 1", res.Scrub.Passes)
	}
	if res.Scrub.LatentPagesRepaired == 0 || res.Scrub.CorruptPagesRepaired == 0 {
		t.Fatalf("scrub repaired latent=%d corrupt=%d pages, want both > 0",
			res.Scrub.LatentPagesRepaired, res.Scrub.CorruptPagesRepaired)
	}
	if res.Scrub.StripesScanned == 0 || res.Scrub.PagesRead == 0 {
		t.Fatalf("scrub stats empty: %+v", res.Scrub)
	}
}

// TestScrubReducesRebuildUREs is the §III-D regression: a latent sector
// error repaired by the patrol scrub must no longer surface as a URE when a
// later rebuild reads the survivors.
func TestScrubReducesRebuildUREs(t *testing.T) {
	run := func(scrubMBps float64) *Results {
		cfg := faultConfig(SchemeLGC, selfHealPlan())
		cfg.Checksums = true
		cfg.ScrubMBps = scrubMBps
		_, res := replayPlan(t, cfg, "Fin1", 3000)
		return res
	}
	base := run(0)
	if base.Fault.Rebuilds != 1 {
		t.Fatalf("baseline rebuilds = %d, want 1", base.Fault.Rebuilds)
	}
	if base.Fault.RebuildUREs == 0 {
		t.Fatal("baseline rebuild saw no UREs; the regression has nothing to show")
	}
	// Bandwidth sized so the single patrol pass finishes well before the
	// failure at 400 ms.
	scrubbed := run(100)
	if scrubbed.Scrub.LatentPagesRepaired == 0 {
		t.Fatal("scrub repaired nothing")
	}
	if scrubbed.Fault.RebuildUREs >= base.Fault.RebuildUREs {
		t.Fatalf("rebuild UREs with scrub = %d, without = %d; want a strict reduction",
			scrubbed.Fault.RebuildUREs, base.Fault.RebuildUREs)
	}
}

// TestHedgedReadsEngageOnFailSlow pins the hedged-read mechanism: with one
// member fail-slow for the whole run, reads homed there race a parity
// reconstruction, and the reconstruction wins.
func TestHedgedReadsEngageOnFailSlow(t *testing.T) {
	plan := FaultPlan{Slowdowns: []DiskSlowdown{
		{Disk: 1, Channel: -1, StartMs: 0, DurationMs: 1e9, ExtraPerOpUs: 5000},
	}}
	run := func(hedge bool) *Results {
		cfg := faultConfig(SchemeLGC, plan)
		cfg.HedgedReads = hedge
		_, res := replayPlan(t, cfg, "HPC_R", 1500)
		return res
	}
	off := run(false)
	if off.Integrity.HedgedReads != 0 {
		t.Fatalf("hedging disabled but HedgedReads = %d", off.Integrity.HedgedReads)
	}
	on := run(true)
	if on.Integrity.HedgedReads == 0 {
		t.Fatal("no reads were hedged against the fail-slow member")
	}
	if on.Integrity.HedgeReconWins == 0 {
		t.Fatal("reconstruction never beat a 5 ms/op fail-slow direct read")
	}
	if on.Latency.Mean >= off.Latency.Mean {
		t.Fatalf("hedged mean %.0fns not below unhedged %.0fns under fail-slow",
			on.Latency.Mean, off.Latency.Mean)
	}
}

// TestSelfHealTraceDeterministic asserts the full self-healing stack —
// seeded defects, checksum verification, patrol scrub, hedged reads,
// failure and rebuild — emits a byte-identical event trace across runs.
func TestSelfHealTraceDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		cfg := faultConfig(SchemeLGC, selfHealPlan())
		cfg.Checksums = true
		cfg.HedgedReads = true
		cfg.ScrubMBps = 100
		cfg.Trace = NewTracer(&buf)
		replayPlan(t, cfg, "Fin1", 1500)
		if err := cfg.Trace.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("trace is empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", len(a), len(b))
	}
	for _, want := range []string{`"scrub-start"`, `"scrub-repair"`, `"scrub-done"`, `"hedged-read"`, `"hedge-win"`} {
		if !bytes.Contains(a, []byte(want)) {
			t.Errorf("trace lacks %s events", want)
		}
	}
}

// TestChecksumsDetectSilentCorruption: with verification on, corrupted reads
// are detected and served from redundancy instead of passing silently.
func TestChecksumsDetectSilentCorruption(t *testing.T) {
	plan := FaultPlan{CorruptPageRate: 5e-3}
	run := func(verify bool) *Results {
		cfg := faultConfig(SchemeLGC, plan)
		cfg.Checksums = verify
		_, res := replayPlan(t, cfg, "HPC_R", 2000)
		return res
	}
	off := run(false)
	if off.Integrity.ChecksumErrors != 0 {
		t.Fatalf("verification off but ChecksumErrors = %d", off.Integrity.ChecksumErrors)
	}
	on := run(true)
	if on.Integrity.ChecksumErrors == 0 {
		t.Fatal("seeded corruption never detected by checksummed reads")
	}
	if on.Integrity.ChecksumFixed != on.Integrity.ChecksumErrors {
		t.Fatalf("fixed %d of %d checksum errors; RAID5 redundancy should cover all",
			on.Integrity.ChecksumFixed, on.Integrity.ChecksumErrors)
	}
}
