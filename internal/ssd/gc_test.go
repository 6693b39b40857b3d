package ssd

import (
	"math/rand"
	"testing"

	"gcsteering/internal/flash"
	"gcsteering/internal/sim"
)

// gcTestConfig has small blocks on many channels, so an episode's
// relocations often leave some channels untouched.
func gcTestConfig() Config {
	return Config{
		Geometry: flash.Geometry{
			PageSize:      4096,
			PagesPerBlock: 8,
			Blocks:        128,
			Channels:      8,
			OverProvision: 0.25,
		},
		Latency:     DefaultLatency(),
		GCLowWater:  8,
		GCHighWater: 16,
	}
}

// chargePerOp is the reference charge for an episode: it issues the plan's
// reads, programs and erases (and the entry overhead on every channel) one
// occupy at a time, in a shuffled order, and then does startGC's busy,
// wall and end-time bookkeeping.
func chargePerOp(d *Device, now sim.Time, plan flash.Plan, rng *rand.Rand) {
	type op struct {
		c   int
		dur sim.Time
	}
	var ops []op
	lat := d.cfg.Latency
	for c := range d.free {
		if d.cfg.GCOverhead > 0 {
			ops = append(ops, op{c, d.cfg.GCOverhead})
		}
		for i := 0; i < plan.ChannelReads[c]; i++ {
			ops = append(ops, op{c, lat.PageRead + lat.BusTransfer})
		}
		for i := 0; i < plan.ChannelPrograms[c]; i++ {
			ops = append(ops, op{c, lat.PageProgram + lat.BusTransfer})
		}
		for i := 0; i < plan.ChannelErases[c]; i++ {
			ops = append(ops, op{c, lat.BlockErase})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	busyBefore := d.stats.BusyTime
	endAll := now
	for _, o := range ops {
		if end := d.occupy(now, o.c, o.dur); end > endAll {
			endAll = end
		}
	}
	d.stats.GCBusyTime += d.stats.BusyTime - busyBefore
	if wallStart := d.gcEndAt; endAll > wallStart {
		if wallStart < now {
			wallStart = now
		}
		d.stats.GCWallTime += endAll - wallStart
	}
	if endAll > d.gcEndAt {
		d.gcEndAt = endAll
	}
}

// TestGCChargeMatchesPerOpCharge pins the argument the episode charge
// rests on: every GC op of an episode is issued at the same instant, so
// one reservation per channel of the summed service time leaves each
// channel's next-free instant, the busy and wall-time statistics and the
// episode end exactly where one reservation per op, in any order, would.
// Episodes are real FTL plans over random prior channel backlogs — idle
// channels, channels booked past now, devices already in GC — with and
// without a per-episode entry overhead.
func TestGCChargeMatchesPerOpCharge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var overhead, extended, idleBooked int
	for trial := 0; trial < 300; trial++ {
		tmpl, err := New(0, nil, gcTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		tmpl.Prefill(rng, 0.5+rng.Float64(), tmpl.LogicalPages())
		got, want := tmpl.Clone(0, sim.NewEngine()), tmpl.Clone(0, sim.NewEngine())
		if trial%2 == 1 {
			got.cfg.GCOverhead = sim.Time(1+rng.Intn(500)) * sim.Microsecond
			want.cfg.GCOverhead = got.cfg.GCOverhead
		}
		now := sim.Time(rng.Intn(10_000)) * sim.Microsecond
		for c := range got.free {
			switch rng.Intn(3) {
			case 0: // idle since before now
				got.free[c] = sim.Time(rng.Int63n(int64(now) + 1))
			case 1: // booked past now
				got.free[c] = now + sim.Time(1+rng.Intn(20_000))*sim.Microsecond
			}
			want.free[c] = got.free[c]
		}
		if rng.Intn(2) == 0 {
			got.gcEndAt = now + sim.Time(rng.Intn(5_000))*sim.Microsecond
			want.gcEndAt = got.gcEndAt
		}
		target, minVictims := rng.Intn(got.cfg.GCHighWater+1), rng.Intn(4)
		freeBefore := append([]sim.Time(nil), got.free...)
		inGC := got.InGC(now)

		got.startGC(now, target, minVictims, false)
		plan := want.ftl.CollectUntil(target, minVictims)
		if !plan.Empty() {
			chargePerOp(want, now, plan, rng)
		}

		for c := range got.free {
			if got.free[c] != want.free[c] {
				t.Fatalf("trial %d: channel %d free at %v, per-op charge gives %v",
					trial, c, got.free[c], want.free[c])
			}
		}
		g, w := got.stats, want.stats
		if g.BusyTime != w.BusyTime || g.GCBusyTime != w.GCBusyTime || g.GCWallTime != w.GCWallTime {
			t.Fatalf("trial %d: busy/gc-busy/gc-wall %v/%v/%v, per-op charge gives %v/%v/%v",
				trial, g.BusyTime, g.GCBusyTime, g.GCWallTime, w.BusyTime, w.GCBusyTime, w.GCWallTime)
		}
		if got.gcEndAt != want.gcEndAt {
			t.Fatalf("trial %d: episode ends at %v, per-op charge gives %v", trial, got.gcEndAt, want.gcEndAt)
		}
		if plan.Empty() {
			continue
		}
		if got.cfg.GCOverhead > 0 {
			overhead++
		}
		if inGC {
			extended++
		}
		for c := range freeBefore {
			untouched := plan.ChannelReads[c]+plan.ChannelPrograms[c]+plan.ChannelErases[c] == 0
			if untouched && freeBefore[c] > now {
				idleBooked++
				break
			}
		}
	}
	if overhead == 0 || extended == 0 || idleBooked == 0 {
		t.Fatalf("vacuous: %d episodes with overhead, %d extensions, %d with an untouched booked channel",
			overhead, extended, idleBooked)
	}
}

// TestGCSteadyStateZeroAllocs checks that host writes which start and
// extend GC episodes, with an episode-end hook installed, allocate nothing
// once the engine's queue has grown to its working size.
func TestGCSteadyStateZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	d, err := New(0, eng, gcTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Prefill(rand.New(rand.NewSource(1)), 0.5, d.LogicalPages())
	ends := 0
	d.OnGCEnd = func(sim.Time, *Device) { ends++ }
	rng := rand.New(rand.NewSource(2))
	lp := d.LogicalPages()
	// A burst of writes at one instant drains the free pool repeatedly, so
	// later collections in the burst extend the episode the first started;
	// the burst then runs to the episode's end.
	burst := func() {
		now := eng.Now()
		for i := 0; i < 64; i++ {
			d.Write(now, rng.Intn(lp), 1, nil)
		}
		eng.Run()
	}
	for i := 0; i < 100; i++ {
		burst()
	}
	before := d.Stats()
	endsBefore := ends
	if n := testing.AllocsPerRun(100, burst); n != 0 {
		t.Fatalf("%v allocations per write burst, want 0", n)
	}
	s := d.Stats()
	if s.GCEpisodes == before.GCEpisodes || s.GCExtensions == before.GCExtensions || ends == endsBefore {
		t.Fatalf("vacuous: %d episodes, %d extensions, %d end hooks during the measured bursts",
			s.GCEpisodes-before.GCEpisodes, s.GCExtensions-before.GCExtensions, ends-endsBefore)
	}
}
