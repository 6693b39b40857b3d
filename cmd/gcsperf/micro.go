package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"gcsteering"
	"gcsteering/internal/core"
	"gcsteering/internal/flash"
	"gcsteering/internal/metrics"
	"gcsteering/internal/obs"
	"gcsteering/internal/raid"
	"gcsteering/internal/sim"
	"gcsteering/internal/ssd"
	"gcsteering/internal/workload"
)

// microBatches is how many timed batches each microbenchmark reports the
// median of.
const microBatches = 5

// microResult is a microbenchmark's median cost per operation.
type microResult struct{ ns, allocs float64 }

// micro times ops operations per batch over microBatches batches. prep
// builds a batch's fresh state outside the timer and returns the batch
// body, which performs all ops operations itself so the loop costs no
// indirect call per op.
func (m *measurer) micro(name string, ops int, prep func() (func(), error)) (microResult, error) {
	var ns, allocs []float64
	for b := 0; b < microBatches; b++ {
		body, err := prep()
		if err != nil {
			return microResult{}, fmt.Errorf("%s: %w", name, err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sp := m.spans.begin(name, b)
		t0 := time.Now()
		body()
		el := time.Since(t0)
		m.spans.end(sp)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(el.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(ops))
	}
	return microResult{median(ns), median(allocs)}, nil
}

// xorshift is the microbenchmarks' fixed input stream.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// fakeDisk is a zero-latency raid.Disk: every op completes at its issue
// instant, so the RAID and steering microbenchmarks time only the array's
// and the redirector's own work.
type fakeDisk struct {
	eng   *sim.Engine
	pages int
	gc    bool
}

func (d *fakeDisk) Read(now sim.Time, page, pages int, done func(sim.Time)) error {
	return d.op(now, page, pages, done)
}

func (d *fakeDisk) Write(now sim.Time, page, pages int, done func(sim.Time)) error {
	return d.op(now, page, pages, done)
}

func (d *fakeDisk) op(now sim.Time, page, pages int, done func(sim.Time)) error {
	if page < 0 || pages <= 0 || page+pages > d.pages {
		return fmt.Errorf("fake disk: range [%d,%d) outside %d pages", page, page+pages, d.pages)
	}
	if done != nil {
		d.eng.At(now, done)
	}
	return nil
}

func (d *fakeDisk) LogicalPages() int      { return d.pages }
func (d *fakeDisk) InGC(now sim.Time) bool { return d.gc }

// Fixed geometry of the RAID and steering microbenchmarks: RAID5 over five
// members with a 64 KiB unit (16 pages), as in the replay workloads.
const (
	microUnit      = 16
	microDiskPages = microUnit * 4096
	microReserved  = 8192 // staging pages per member for the steering benches
	microGCDisk    = 2    // the member reporting InGC in the steering benches
)

// microArray builds the RAID5 array over zero-latency fakes; with steering
// it adds reserved staging and the GC-Steering controller, and member
// microGCDisk reports InGC.
func microArray(steer bool) (*sim.Engine, *raid.Array, []*fakeDisk, *core.Steering, error) {
	eng := sim.NewEngine()
	fakes := make([]*fakeDisk, 5)
	disks := make([]raid.Disk, 5)
	for i := range fakes {
		fakes[i] = &fakeDisk{eng: eng, pages: microDiskPages + microReserved}
		disks[i] = fakes[i]
	}
	lay := raid.Layout{Level: raid.RAID5, Disks: 5, UnitPages: microUnit, DiskPages: microDiskPages}
	arr, err := raid.NewArray(eng, lay, disks)
	if err != nil || !steer {
		return eng, arr, fakes, nil, err
	}
	staging, err := core.NewReservedStaging(disks, microDiskPages, microReserved, 0.3)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	st, err := core.New(eng, arr, staging, core.DefaultConfig())
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fakes[microGCDisk].gc = true
	return eng, arr, fakes, st, nil
}

// unitsOn returns the logical first pages of the data units that live on
// member disk, in stripe order.
func unitsOn(lay raid.Layout, disk, n int) ([]int, error) {
	var out []int
	for p := 0; p < lay.LogicalPages() && len(out) < n; p += lay.UnitPages {
		loc, err := lay.Map(p)
		if err != nil {
			return nil, err
		}
		if loc.Disk == disk {
			out = append(out, p)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d units on disk %d", len(out), disk)
	}
	return out, nil
}

// mustIO turns an I/O error inside a microbenchmark loop into a panic:
// every range is derived from the fixed geometry above, so an error is a
// bug in the benchmark, not an input the run could recover from.
func mustIO(err error) {
	if err != nil {
		panic(err)
	}
}

// deviceConfig is the member device configuration gcsteering.New builds
// from a Config.
func deviceConfig(cfg gcsteering.Config) ssd.Config {
	return ssd.Config{
		Geometry:        cfg.Flash,
		Latency:         cfg.Latency,
		GCLowWater:      cfg.GCLowWater,
		GCHighWater:     cfg.GCHighWater,
		ForcedGCVictims: cfg.ForcedGCVictims,
		GCOverhead:      sim.Time(cfg.GCOverheadMs * float64(sim.Millisecond)),
	}
}

// usedPages is the span the facade prefills: the member's logical pages
// minus the reserved carve-out, rounded down to whole stripe units.
func usedPages(cfg gcsteering.Config) int {
	data := int(float64(cfg.Flash.LogicalPages()) * (1 - cfg.ReservedFrac))
	unit := cfg.StripeUnitKB * 1024 / cfg.Flash.PageSize
	return data - data%unit
}

// runMicro runs every microbenchmark and records its per-layer metrics.
func (m *measurer) runMicro(out samples) error {
	scale := 1
	if m.quick {
		scale = 20
	}
	cfg := gcsteering.DefaultConfig()
	used := usedPages(cfg)
	noop := func(sim.Time) {}
	rec := func(prefix string, r microResult) {
		out.add(prefix+"_ns", r.ns)
		out.add(prefix+"_allocs", r.allocs)
	}

	// sim: schedule one event and fire the earliest with 1,024 pending.
	ops := 400_000 / scale
	r, err := m.micro("micro/sim.at_step", ops, func() (func(), error) {
		eng := sim.NewEngine()
		x := xorshift(1)
		for i := 0; i < 1024; i++ {
			eng.At(sim.Time(x.next()%2048+1)*sim.Microsecond, noop)
		}
		return func() {
			for i := 0; i < ops; i++ {
				eng.At(eng.Now()+sim.Time(x.next()%2048+1)*sim.Microsecond, noop)
				eng.Step()
			}
		}, nil
	})
	if err != nil {
		return err
	}
	rec("sim.at_step", r)

	// flash: random overwrite of a prefilled FTL, collecting at the low
	// watermark as the device does.
	ops = 200_000 / scale
	r, err = m.micro("micro/flash.write_gc", ops, func() (func(), error) {
		ftl, err := flash.NewFTL(cfg.Flash)
		if err != nil {
			return nil, err
		}
		for lpn := 0; lpn < used; lpn++ {
			ftl.Write(lpn)
		}
		x := xorshift(2)
		return func() {
			for i := 0; i < ops; i++ {
				ftl.Write(int(x.next() % uint64(used)))
				if ftl.NeedGC(cfg.GCLowWater) {
					ftl.CollectUntil(cfg.GCHighWater, 0)
				}
			}
		}, nil
	})
	if err != nil {
		return err
	}
	rec("flash.write_gc", r)

	// ssd: one closed-loop writer issuing 16-page writes to a warm device.
	ops = 20_000 / scale
	r, err = m.micro("micro/ssd.write", ops, func() (func(), error) {
		eng := sim.NewEngine()
		dev, err := ssd.New(0, eng, deviceConfig(cfg))
		if err != nil {
			return nil, err
		}
		dev.Prefill(rand.New(rand.NewSource(3)), cfg.PrefillOverwrite, used)
		x := xorshift(3)
		return func() {
			for i := 0; i < ops; i++ {
				lpn := int(x.next()%uint64(used/16)) * 16
				mustIO(dev.Write(eng.Now(), lpn, 16, noop))
				eng.Run()
			}
		}, nil
	})
	if err != nil {
		return err
	}
	rec("ssd.write", r)

	// ssd: warm-up of one member, the per-device cost inside New.
	prefills := 2
	r, err = m.micro("micro/ssd.prefill", prefills, func() (func(), error) {
		return func() {
			for i := 0; i < prefills; i++ {
				dev, err := ssd.New(i, sim.NewEngine(), deviceConfig(cfg))
				mustIO(err)
				dev.Prefill(rand.New(rand.NewSource(int64(4+i))), cfg.PrefillOverwrite, used)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out.add("ssd.prefill_ms", r.ns/1e6)

	// raid: full-stripe writes (HPC_W's shape), small RMW writes (Fin1's
	// 12 KiB), and two-stripe reads (HPC_R's shape).
	stripePages := 4 * microUnit
	stripes := microDiskPages / microUnit
	for _, c := range []struct {
		name   string
		ops    int
		write  bool
		offset int
		pages  int
	}{
		{"raid.full_stripe_write", 50_000, true, 0, stripePages},
		{"raid.rmw_write", 50_000, true, 5, 3},
		{"raid.read", 20_000, false, 0, 2 * stripePages},
	} {
		ops := c.ops / scale
		r, err := m.micro("micro/"+c.name, ops, func() (func(), error) {
			eng, arr, _, _, err := microArray(false)
			if err != nil {
				return nil, err
			}
			return func() {
				for i := 0; i < ops; i++ {
					page := (i%(stripes-2))*stripePages + c.offset
					if c.write {
						mustIO(arr.Write(eng.Now(), page, c.pages, noop))
					} else {
						mustIO(arr.Read(eng.Now(), page, c.pages, noop))
					}
					eng.Run()
				}
			}, nil
		})
		if err != nil {
			return err
		}
		rec(c.name, r)
	}

	// core: an 8 KiB write then read of a unit on a collecting member, so
	// the redirector steers both (writes to staging, reads of staged data).
	ops = 20_000 / scale
	r, err = m.micro("micro/core.route_gc", ops, func() (func(), error) {
		eng, arr, _, _, err := microArray(true)
		if err != nil {
			return nil, err
		}
		units, err := unitsOn(arr.Layout(), microGCDisk, 64)
		if err != nil {
			return nil, err
		}
		return func() {
			for i := 0; i < ops; i++ {
				page := units[i%len(units)] + 2*(i/len(units)%8)
				mustIO(arr.Write(eng.Now(), page, 2, noop))
				eng.Run()
				mustIO(arr.Read(eng.Now(), page, 2, noop))
				eng.Run()
			}
		}, nil
	})
	if err != nil {
		return err
	}
	rec("core.route_gc", r)

	// core: drain 4,096 staged pages back home once the member's GC ends.
	pages := 4096 / scale / microUnit * microUnit
	r, err = m.micro("micro/core.reclaim", pages, func() (func(), error) {
		eng, arr, fakes, st, err := microArray(true)
		if err != nil {
			return nil, err
		}
		units, err := unitsOn(arr.Layout(), microGCDisk, pages/microUnit)
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			if err := arr.Write(eng.Now(), u, microUnit, nil); err != nil {
				return nil, err
			}
		}
		eng.Run()
		if got := st.DTable().WriteLen(); got != pages {
			return nil, fmt.Errorf("staged %d pages, want %d", got, pages)
		}
		fakes[microGCDisk].gc = false
		return func() {
			st.OnDeviceGCEnd(eng.Now(), microGCDisk)
			eng.Run()
			if st.DTable().WriteLen() != 0 {
				panic("reclaim left staged pages behind")
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out.add("core.reclaim_ns_per_page", r.ns)

	// metrics: one response time into the run histogram and the windowed
	// recorder, as the facade settles a request.
	ops = 1_000_000 / scale
	r, err = m.micro("micro/metrics.observe", ops, func() (func(), error) {
		var h metrics.Hist
		rc := metrics.NewRecorder(int64(100*sim.Millisecond), false)
		x := xorshift(5)
		return func() {
			for i := 0; i < ops; i++ {
				v := int64(x.next() % 1_000_000)
				h.Observe(v)
				rc.Observe(int64(i)*50_000, v)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	rec("metrics.observe", r)

	// obs: an emit on the disabled (nil) tracer and on a live one.
	ev := obs.Event{Kind: obs.KSubOp, Dev: 1, Page: 4096, Pages: 16, Aux: 1, Aux2: 7}
	ops = 20_000_000 / scale
	r, err = m.micro("micro/obs.emit_off", ops, func() (func(), error) {
		var tr *obs.Tracer
		return func() {
			for i := 0; i < ops; i++ {
				tr.Emit(sim.Time(i), ev)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out.add("obs.emit_off_ns", r.ns)
	ops = 1_000_000 / scale
	r, err = m.micro("micro/obs.emit_on", ops, func() (func(), error) {
		tr := obs.New(io.Discard)
		return func() {
			for i := 0; i < ops; i++ {
				tr.Emit(sim.Time(i), ev)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out.add("obs.emit_on_ns", r.ns)

	// workload: synthesize Fin1 requests sized to the default array.
	reqs := 20_000 / scale
	r, err = m.micro("micro/workload.generate", reqs, func() (func(), error) {
		p, ok := workload.ByName("Fin1")
		if !ok {
			return nil, fmt.Errorf("no Fin1 profile")
		}
		opt := workload.Options{Capacity: cfg.Capacity(), MaxRequests: reqs, Seed: 8}
		return func() {
			tr, err := workload.Generate(p, opt)
			mustIO(err)
			if len(tr) != reqs {
				panic(fmt.Sprintf("generated %d requests, want %d", len(tr), reqs))
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out.add("workload.generate_ns_per_req", r.ns)
	return nil
}
