package gcsteering

import (
	"strings"
	"testing"
)

func TestResultsStringFormats(t *testing.T) {
	r := &Results{Scheme: SchemeSteering, Staging: StagingReserved}
	r.Latency.Mean = 1500
	r.Latency.P99 = 9000
	r.GCEpisodes = 3
	r.RedirectRatio = 0.5
	s := r.String()
	for _, want := range []string{"GC-Steering/Reserved", "gc=3", "redirect=50.0%"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	r2 := &Results{Scheme: SchemeLGC, Fault: FaultStats{Injected: true, RebuildTime: Time(2e9)}}
	if s := r2.String(); !strings.Contains(s, "rebuild=") || strings.Contains(s, "redirect") {
		t.Fatalf("LGC String() = %q", s)
	}
}

func TestGCDuty(t *testing.T) {
	r := &Results{GCWallTime: 50, Duration: 100}
	if got := r.GCDuty(5); got != 0.1 {
		t.Fatalf("GCDuty = %v", got)
	}
	if (&Results{}).GCDuty(5) != 0 {
		t.Fatal("empty duty must be 0")
	}
	if r.GCDuty(0) != 0 {
		t.Fatal("zero devices must be 0")
	}
}

func TestRAID6SystemReplays(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	cfg.Level = RAID6
	cfg.Disks = 6
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.GenerateWorkload("wdev_0", 1000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count != 1000 {
		t.Fatalf("%d responses", res.Latency.Count)
	}
}

func TestSteeringOnRAID6(t *testing.T) {
	cfg := smallConfig(SchemeSteering)
	cfg.Level = RAID6
	cfg.Disks = 6
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.GenerateWorkload("Fin1", 2000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count != 2000 {
		t.Fatalf("%d responses", res.Latency.Count)
	}
}

func TestCapacityMatchesGeometry(t *testing.T) {
	cfg := smallConfig(SchemeLGC)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity = stripes × unit × dataDisks × pageSize; must be positive,
	// page-aligned and smaller than raw capacity.
	c := cfg.Capacity()
	if built := int64(sys.arr.Layout().LogicalPages()) * int64(cfg.Flash.PageSize); c != built {
		t.Fatalf("Config.Capacity %d, built array holds %d", c, built)
	}
	raw := int64(cfg.Disks) * int64(cfg.Flash.Blocks*cfg.Flash.PagesPerBlock*cfg.Flash.PageSize)
	if c <= 0 || c >= raw {
		t.Fatalf("capacity %d vs raw %d", c, raw)
	}
	if c%int64(cfg.Flash.PageSize) != 0 {
		t.Fatal("capacity not page aligned")
	}
}

func TestDedicatedStagingSystem(t *testing.T) {
	cfg := smallConfig(SchemeSteering)
	cfg.Staging = StagingDedicated
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sys.GenerateWorkload("prxy_0", 1500)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Staging != StagingDedicated {
		t.Fatal("results do not carry the staging kind")
	}
}
