package raid

import (
	"testing"

	"gcsteering/internal/sim"
)

// quietDisk completes every op after a fixed latency and records nothing,
// so an allocation count over it is the array's own.
type quietDisk struct {
	eng   *sim.Engine
	pages int
	inGC  bool
}

func (d *quietDisk) Read(now sim.Time, page, pages int, done func(sim.Time)) error {
	if done != nil {
		d.eng.At(now+10, done)
	}
	return nil
}

func (d *quietDisk) Write(now sim.Time, page, pages int, done func(sim.Time)) error {
	if done != nil {
		d.eng.At(now+100, done)
	}
	return nil
}

func (d *quietDisk) LogicalPages() int    { return d.pages }
func (d *quietDisk) InGC(t sim.Time) bool { return d.inGC }

func discard(sim.Time) {}

// TestSteadyStateZeroAllocs pins the pooled request path: once warmed, a
// request allocates nothing — its fan-ins are engine joins and its
// deferred state (request, stripe write, hedge) lives in recycled records.
func TestSteadyStateZeroAllocs(t *testing.T) {
	lay := raid5Layout()
	home := mustMap(lay, 0).Disk
	for _, tc := range []struct {
		name  string
		setup func(a *Array, disks []*quietDisk)
		write bool
		pages int
		check func(Stats) bool
	}{
		{"full-stripe write", nil, true, lay.DataDisks() * lay.UnitPages,
			func(s Stats) bool { return s.FullStripes > 0 }},
		{"rmw write", nil, true, 3,
			func(s Stats) bool { return s.RMWStripes > 0 }},
		{"degraded read", func(a *Array, _ []*quietDisk) {
			if err := a.FailDisk(home); err != nil {
				t.Fatal(err)
			}
		}, false, 4, func(s Stats) bool { return s.DegradedReads > 0 }},
		{"hedged read", func(a *Array, disks []*quietDisk) {
			a.HedgedReads = true
			disks[home].inGC = true
		}, false, 4, func(s Stats) bool { return s.HedgedReads > 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			disks := make([]*quietDisk, lay.Disks)
			members := make([]Disk, lay.Disks)
			for i := range disks {
				disks[i] = &quietDisk{eng: eng, pages: lay.DiskPages}
				members[i] = disks[i]
			}
			a, err := NewArray(eng, lay, members)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(a, disks)
			}
			// A live token exercises the request's chained cancellation
			// state, and for hedges its hold until both legs are in.
			tok := &Cancel{}
			op := func() {
				var err error
				if tc.write {
					err = a.WriteCancelable(eng.Now(), 0, tc.pages, tok, discard)
				} else {
					err = a.ReadCancelable(eng.Now(), 0, tc.pages, tok, discard)
				}
				if err != nil {
					t.Fatal(err)
				}
				eng.Run()
			}
			for i := 0; i < 4; i++ {
				op()
			}
			if n := testing.AllocsPerRun(100, op); n != 0 {
				t.Errorf("%v allocations per request, want 0", n)
			}
			if !tc.check(a.Stats()) {
				t.Errorf("request did not take the %s path: %+v", tc.name, a.Stats())
			}
			if a.Inflight() != 0 {
				t.Errorf("%d requests still in flight", a.Inflight())
			}
		})
	}
}
