package ssd

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"gcsteering/internal/flash"
	"gcsteering/internal/obs"
	"gcsteering/internal/sim"
)

func testConfig() Config {
	return Config{
		Geometry: flash.Geometry{
			PageSize:      4096,
			PagesPerBlock: 32,
			Blocks:        64,
			Channels:      4,
			OverProvision: 0.20,
		},
		Latency:     DefaultLatency(),
		GCLowWater:  2,
		GCHighWater: 6,
	}
}

func newDevice(t *testing.T) (*sim.Engine, *Device) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := New(0, eng, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	c := testConfig()
	c.GCHighWater = c.GCLowWater // high must exceed low
	if err := c.Validate(); err == nil {
		t.Fatal("equal watermarks accepted")
	}
	c = testConfig()
	c.Latency.PageRead = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero read latency accepted")
	}
}

func TestSinglePageReadLatency(t *testing.T) {
	eng, d := newDevice(t)
	var doneAt sim.Time
	d.Read(0, 0, 1, func(now sim.Time) { doneAt = now })
	eng.Run()
	want := DefaultLatency().PageRead + DefaultLatency().BusTransfer
	if doneAt != want {
		t.Fatalf("read finished at %v, want %v", doneAt, want)
	}
}

func TestSinglePageWriteLatency(t *testing.T) {
	eng, d := newDevice(t)
	var doneAt sim.Time
	d.Write(0, 0, 1, func(now sim.Time) { doneAt = now })
	eng.Run()
	want := DefaultLatency().PageProgram + DefaultLatency().BusTransfer
	if doneAt != want {
		t.Fatalf("write finished at %v, want %v", doneAt, want)
	}
}

func TestParallelChannelsOverlap(t *testing.T) {
	eng, d := newDevice(t)
	// A multi-page write stripes across channels, so 4 pages on a 4-channel
	// device take one program, not four.
	var doneAt sim.Time
	d.Write(0, 0, 4, func(now sim.Time) { doneAt = now })
	eng.Run()
	perPage := DefaultLatency().PageProgram + DefaultLatency().BusTransfer
	if doneAt != perPage {
		t.Fatalf("4-page striped write finished at %v, want %v (parallel)", doneAt, perPage)
	}
}

func TestQueueingOnSameChannel(t *testing.T) {
	eng, d := newDevice(t)
	// Two reads of the same (unmapped) page land on the same channel and
	// must serialize.
	var first, second sim.Time
	d.Read(0, 0, 1, func(now sim.Time) { first = now })
	d.Read(0, 0, 1, func(now sim.Time) { second = now })
	eng.Run()
	perPage := DefaultLatency().PageRead + DefaultLatency().BusTransfer
	if first != perPage || second != 2*perPage {
		t.Fatalf("reads finished at %v and %v, want %v and %v", first, second, perPage, 2*perPage)
	}
}

func TestRangeErrors(t *testing.T) {
	_, d := newDevice(t)
	for _, tc := range []struct{ lpn, pages int }{
		{-1, 1}, {0, 0}, {0, -1}, {d.LogicalPages(), 1}, {d.LogicalPages() - 1, 2},
	} {
		if err := d.Read(0, tc.lpn, tc.pages, nil); err == nil {
			t.Errorf("Read(%d,%d) did not error", tc.lpn, tc.pages)
		}
		if err := d.Write(0, tc.lpn, tc.pages, nil); err == nil {
			t.Errorf("Write(%d,%d) did not error", tc.lpn, tc.pages)
		}
		if err := d.Trim(tc.lpn, tc.pages); err == nil {
			t.Errorf("Trim(%d,%d) did not error", tc.lpn, tc.pages)
		}
	}
}

func TestPrefillReachesSteadyState(t *testing.T) {
	_, d := newDevice(t)
	d.Prefill(rand.New(rand.NewSource(1)), 0.5, d.LogicalPages())
	if d.FreeBlocks() > d.Config().GCHighWater {
		t.Fatalf("FreeBlocks = %d after prefill, want <= high watermark %d",
			d.FreeBlocks(), d.Config().GCHighWater)
	}
	if d.Stats() != (Stats{}) {
		t.Fatalf("prefill leaked into stats: %+v", d.Stats())
	}
	if d.Erases() == 0 {
		t.Fatal("prefill with 50% overwrite should have forced untimed GC")
	}
}

// driveToGC writes random pages until a GC episode begins, returning the
// trigger time.
func driveToGC(t *testing.T, eng *sim.Engine, d *Device, rng *rand.Rand) sim.Time {
	t.Helper()
	lp := d.LogicalPages()
	step := 100 * sim.Microsecond
	for i := 0; i < 200000; i++ {
		now := eng.Now()
		d.Write(now, rng.Intn(lp), 1, nil)
		if d.InGC(now) {
			return now
		}
		eng.RunFor(step)
	}
	t.Fatal("never reached GC")
	return 0
}

func TestGCBlocksUserIO(t *testing.T) {
	eng, d := newDevice(t)
	d.Prefill(rand.New(rand.NewSource(2)), 0.5, d.LogicalPages())
	rng := rand.New(rand.NewSource(3))
	now := driveToGC(t, eng, d, rng)
	if !d.InGC(now) {
		t.Fatal("expected device in GC")
	}
	gcEnd := d.GCEndsAt()
	if gcEnd <= now {
		t.Fatalf("GC end %v not after trigger %v", gcEnd, now)
	}
	// A read issued during the episode should finish far later than the
	// raw page-read time: it queues behind GC channel work.
	var doneAt sim.Time
	d.Read(now, 0, 1, func(t sim.Time) { doneAt = t })
	eng.Run()
	raw := DefaultLatency().PageRead + DefaultLatency().BusTransfer
	if doneAt-now <= raw {
		t.Fatalf("read during GC finished in %v, expected queueing behind GC (> %v)",
			doneAt-now, raw)
	}
	if d.Stats().GCEpisodes == 0 {
		t.Fatal("GC episode not counted")
	}
}

func TestGCHooksFire(t *testing.T) {
	eng, d := newDevice(t)
	d.Prefill(rand.New(rand.NewSource(4)), 0.5, d.LogicalPages())
	var starts, ends int
	var startAt, endAt sim.Time
	d.OnGCStart = func(now sim.Time, dev *Device) {
		starts++
		startAt = now
		if dev != d {
			t.Error("hook passed wrong device")
		}
	}
	d.OnGCEnd = func(now sim.Time, dev *Device) { ends++; endAt = now }
	rng := rand.New(rand.NewSource(5))
	driveToGC(t, eng, d, rng)
	eng.Run()
	if starts == 0 || ends == 0 {
		t.Fatalf("hooks: starts=%d ends=%d", starts, ends)
	}
	if endAt <= startAt {
		t.Fatalf("GC end %v not after start %v", endAt, startAt)
	}
}

func TestForceGCWorksAndIsIdempotentDuringEpisode(t *testing.T) {
	eng, d := newDevice(t)
	d.Prefill(rand.New(rand.NewSource(6)), 0.5, d.LogicalPages())
	now := eng.Now()
	if d.InGC(now) {
		t.Fatal("precondition: not in GC")
	}
	d.ForceGC(now)
	if !d.InGC(now) {
		t.Fatal("ForceGC did not start an episode (prefill guarantees garbage)")
	}
	episodes := d.Stats().GCEpisodes
	d.ForceGC(now) // second call during the episode must be a no-op
	if d.Stats().GCEpisodes != episodes {
		t.Fatal("ForceGC started a second overlapping episode")
	}
	if d.Stats().ForcedGCs != 1 {
		t.Fatalf("ForcedGCs = %d, want 1", d.Stats().ForcedGCs)
	}
	eng.Run()
}

// TestMidEpisodeWriteExtendsEpisode is the regression test for the
// GC-accounting fix: a write arriving during a running episode that drains
// the free pool again must EXTEND the episode (GCExtensions) rather than
// start a new one — GCEpisodes must not grow, OnGCStart must not re-fire
// (under GGC a re-fire launches a redundant global forced round), and the
// episode-end hook must fire exactly once, at the final extended end.
func TestMidEpisodeWriteExtendsEpisode(t *testing.T) {
	eng, d := newDevice(t)
	d.Prefill(rand.New(rand.NewSource(9)), 0.5, d.LogicalPages())
	var buf bytes.Buffer
	d.Trace = obs.New(&buf)
	var starts, ends int
	var endAt sim.Time
	d.OnGCStart = func(now sim.Time, dev *Device) { starts++ }
	d.OnGCEnd = func(now sim.Time, dev *Device) { ends++; endAt = now }
	rng := rand.New(rand.NewSource(10))
	now := driveToGC(t, eng, d, rng)
	if got := d.Stats().GCEpisodes; got != 1 {
		t.Fatalf("GCEpisodes = %d after first trigger, want 1", got)
	}
	endBefore := d.GCEndsAt()
	// Keep writing at the same instant: the episode is still running, so
	// draining the free pool again must fold new work into it.
	lp := d.LogicalPages()
	for i := 0; i < 100000 && d.Stats().GCExtensions == 0; i++ {
		d.Write(now, rng.Intn(lp), 1, nil)
	}
	if d.Stats().GCExtensions == 0 {
		t.Fatal("mid-episode writes never extended the episode")
	}
	if got := d.Stats().GCEpisodes; got != 1 {
		t.Fatalf("GCEpisodes = %d after extension, want 1 (extension restarted the episode)", got)
	}
	if starts != 1 {
		t.Fatalf("OnGCStart fired %d times, want 1 (re-fire would launch a redundant GGC round)", starts)
	}
	if got := d.GCEndsAt(); got < endBefore {
		t.Fatalf("episode end moved backwards: %v -> %v", endBefore, got)
	}
	eng.Run()
	if ends != 1 {
		t.Fatalf("OnGCEnd fired %d times, want exactly 1", ends)
	}
	if endAt != d.GCEndsAt() {
		t.Fatalf("OnGCEnd fired at %v, want final episode end %v", endAt, d.GCEndsAt())
	}
	if err := d.Trace.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"ev":"gc-extend"`) {
		t.Error("trace missing gc-extend event")
	}
	if strings.Count(out, `"ev":"gc-start"`) != 1 {
		t.Errorf("trace gc-start count = %d, want 1", strings.Count(out, `"ev":"gc-start"`))
	}
	if strings.Count(out, `"ev":"gc-end"`) != 1 {
		t.Errorf("trace gc-end count = %d, want 1", strings.Count(out, `"ev":"gc-end"`))
	}
}

func TestForceGCOnCleanDeviceIsNoop(t *testing.T) {
	eng, d := newDevice(t)
	// No data at all: nothing collectible.
	d.ForceGC(eng.Now())
	if d.InGC(eng.Now()) || d.Stats().GCEpisodes != 0 {
		t.Fatal("ForceGC on a clean device should do nothing")
	}
}

func TestGCRestoresFreeBlocks(t *testing.T) {
	eng, d := newDevice(t)
	d.Prefill(rand.New(rand.NewSource(7)), 0.5, d.LogicalPages())
	rng := rand.New(rand.NewSource(8))
	driveToGC(t, eng, d, rng)
	// Logical GC applies instantly, so free blocks are restored at trigger.
	if d.FreeBlocks() < d.Config().GCHighWater {
		t.Fatalf("FreeBlocks = %d right after trigger, want >= %d",
			d.FreeBlocks(), d.Config().GCHighWater)
	}
}

func TestBacklogReporting(t *testing.T) {
	eng, d := newDevice(t)
	d.Write(0, 0, 1, func(sim.Time) {})
	if d.MaxBacklog(0) == 0 {
		t.Fatal("expected nonzero backlog right after submit")
	}
	eng.Run() // the completion event advances the clock past the backlog
	if d.MaxBacklog(eng.Now()) != 0 {
		t.Fatal("backlog should drain to zero")
	}
}

func TestStatsAccumulate(t *testing.T) {
	eng, d := newDevice(t)
	d.Read(0, 0, 3, nil)
	d.Write(0, 10, 2, nil)
	eng.Run()
	s := d.Stats()
	if s.ReadOps != 1 || s.PagesRead != 3 || s.WriteOps != 1 || s.PagesWritten != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BusyTime == 0 {
		t.Fatal("BusyTime not accounted")
	}
}
