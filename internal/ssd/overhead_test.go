package ssd

import (
	"math/rand"
	"testing"

	"gcsteering/internal/sim"
)

func TestGCOverheadChargedToAllChannels(t *testing.T) {
	run := func(overhead sim.Time) sim.Time {
		eng := sim.NewEngine()
		cfg := testConfig()
		cfg.GCOverhead = overhead
		d, err := New(0, eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Prefill(rand.New(rand.NewSource(3)), 0.5, d.LogicalPages())
		d.ForceGC(0)
		if !d.InGC(0) {
			t.Fatal("forced GC did not start")
		}
		end := d.GCEndsAt()
		eng.Run()
		return end
	}
	base := run(0)
	withOverhead := run(10 * sim.Millisecond)
	if withOverhead < base+10*sim.Millisecond {
		t.Fatalf("episode end %v with overhead vs %v without; overhead not charged", withOverhead, base)
	}
}

func TestGCOverheadDelaysUserIO(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testConfig()
	cfg.GCOverhead = 20 * sim.Millisecond
	d, err := New(0, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Prefill(rand.New(rand.NewSource(4)), 0.5, d.LogicalPages())
	d.ForceGC(0)
	var doneAt sim.Time
	d.Read(0, 0, 1, func(tm sim.Time) { doneAt = tm })
	eng.Run()
	if doneAt < 20*sim.Millisecond {
		t.Fatalf("read finished at %v; expected to queue behind the 20ms overhead", doneAt)
	}
}

func TestGCWallAndBusyTimeAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d, err := New(0, eng, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Prefill(rand.New(rand.NewSource(5)), 0.5, d.LogicalPages())
	d.ForceGC(0)
	gcEnd := d.GCEndsAt()
	eng.Run()
	s := d.Stats()
	if s.GCWallTime != gcEnd {
		t.Fatalf("GCWallTime %v, want %v (episode started at 0)", s.GCWallTime, gcEnd)
	}
	if s.GCBusyTime <= 0 || s.GCBusyTime > s.BusyTime {
		t.Fatalf("GCBusyTime %v outside (0, BusyTime=%v]", s.GCBusyTime, s.BusyTime)
	}
}

func TestPrefillPartialRange(t *testing.T) {
	_, d := newDevice(t)
	used := d.LogicalPages() / 2
	d.Prefill(rand.New(rand.NewSource(6)), 0.3, used)
	// Pages beyond `used` must stay unmapped: free blocks stay plentiful.
	if d.FreeBlocks() < d.Config().GCHighWater {
		t.Fatalf("partial prefill consumed too much: %d free blocks", d.FreeBlocks())
	}
	d.Prefill(rand.New(rand.NewSource(7)), 0, 0) // no-op prefill allowed
}

func TestPrefillClampsOversizedRange(t *testing.T) {
	_, d := newDevice(t)
	d.Prefill(rand.New(rand.NewSource(8)), 0, d.LogicalPages()*2) // clamped, no panic
	if d.FreeBlocks() == 0 {
		t.Fatal("prefill exhausted the device")
	}
}
