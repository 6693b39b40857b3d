package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"gcsteering"
	"gcsteering/internal/harness"
)

// fleetTenants mirrors the tenant count harness.Cluster gives every cell;
// each tenant offers max(40, requests/16) requests.
const fleetTenants = 16

// gridRun is one run of a grid workload.
type gridRun struct {
	g                *harness.Grid
	wallNs, cpuNs    int64
	allocs, gcCycles uint64
}

// gridVariants is how many seed variants a grid workload cycles through.
// One grid of 3,000-request cells is too small a sample for simulated
// metrics that hold steady from seed to seed, so they are pooled over the
// variants, whose seeds derive from -seed.
func (m *measurer) gridVariants() int {
	if m.quick {
		return 2
	}
	return 16
}

// gridRep runs the whole grid of one seed variant once.
func (m *measurer) gridRep(w *workloadDef, variant, workers, rep int) (*gridRun, error) {
	o := harness.Options{MaxRequests: m.scaled(w.requests), Workers: workers,
		Seed: m.seed*int64(m.gridVariants()) + int64(variant)}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp := m.spans.begin("harness."+w.name, rep)
	t := startWatch()
	g, err := w.grid.run(o)
	wall, cpu := t.elapsed()
	m.spans.end(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	return &gridRun{g: g, wallNs: wall, cpuNs: cpu, allocs: after.Mallocs - before.Mallocs,
		gcCycles: uint64(after.NumGC - before.NumGC)}, nil
}

// gridSetup times the set-up one cell pays, gcsteering.New plus trace
// generation for the default array, in CPU time, and returns the live heap
// with that system and trace still reachable.
func (m *measurer) gridSetup(w *workloadDef, rep int) (newNs, genNs int64, heap uint64, err error) {
	cfg := gcsteering.DefaultConfig()
	cfg.Seed += m.seed
	runtime.GC()
	sp := m.spans.begin("gcsteering.New", rep)
	t := startWatch()
	sys, err := gcsteering.New(cfg)
	_, newNs = t.elapsed()
	m.spans.end(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	sp = m.spans.begin("System.GenerateWorkload", rep)
	t = startWatch()
	tr, err := sys.GenerateWorkload("HPC_W", m.scaled(w.requests))
	_, genNs = t.elapsed()
	m.spans.end(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sys)
	runtime.KeepAlive(tr)
	return newNs, genNs, ms.HeapAlloc, nil
}

// gridSpec tells the benchmark how to read one harness grid.
type gridSpec struct {
	run func(harness.Options) (*harness.Grid, error)
	// head and base are the variants the steering ratio compares.
	head, base string
	// p99 is the auxiliary metric holding a cell's p99; worst the one
	// holding the p99 of a cell's worst-served slice.
	p99, worst string
	// counters fills attempted, failed and the per-layer counters.
	counters func(m *measurer, w *workloadDef, g *harness.Grid, f *gridFacts, col func(metric, variant string) []float64)
}

var fig7Spec = gridSpec{
	run: harness.Fig7, head: "GC-Steering", base: "LGC",
	p99: "p99 response time (µs)", worst: "p99 response time (µs)",
	counters: func(m *measurer, w *workloadDef, g *harness.Grid, f *gridFacts, col func(string, string) []float64) {
		const gcs = "GC count (episodes)"
		for _, wl := range g.Workloads {
			p, _ := gcsteering.ProfileByName(wl)
			f.attempted += int64(len(g.Variants) * min(p.Requests, m.scaled(w.requests)))
		}
		f.layer["sched.ggc_gc_vs_lgc"] = geomean(ratios(col(gcs, "GGC"), col(gcs, "LGC")))
		f.layer["core.steer_gc_vs_lgc"] = geomean(ratios(col(gcs, "GC-Steering"), col(gcs, "LGC")))
		f.layer["core.redirect_ratio"] = mean(col("redirect ratio (%)", "GC-Steering")) / 100
		episodes := sum(col(gcs, "GC-Steering")) + sum(col(gcs, "LGC")) + sum(col(gcs, "GGC"))
		f.layer["ssd.gc_episodes_per_kreq"] = episodes / float64(f.attempted) * 1000
	},
}

var fleetSpec = gridSpec{
	run: harness.Cluster, head: "gc-aware", base: "hash-only",
	p99: "cluster p99 (µs)", worst: "worst tenant p99 (µs)",
	counters: func(m *measurer, w *workloadDef, g *harness.Grid, f *gridFacts, col func(string, string) []float64) {
		shed := sum(col("shed", "gc-aware")) + sum(col("shed", "hash-only"))
		rejected := sum(col("rejected", "gc-aware")) + sum(col("rejected", "hash-only"))
		perTenant := max(40, m.scaled(w.requests)/fleetTenants)
		cells := int64(len(g.Workloads) * len(g.Variants))
		f.attempted = cells*int64(fleetTenants*perTenant) - int64(shed)
		f.failed = int64(rejected)
		f.layer["cluster.redirects"] = sum(col("redirects", "gc-aware"))
		f.layer["cluster.shed"] = shed
		f.layer["cluster.rejected"] = rejected
		f.layer["cluster.wov_ms"] = sum(col("wov (ms)", "gc-aware"))
	},
}

// gridFacts is what a grid workload reads from one Grid.
type gridFacts struct {
	attempted, failed int64
	// Per grid row: the headline variant's mean and p99, the baseline's
	// p99, and headline ÷ baseline mean where both are positive.
	means, p99s, baseP99s, meanRatios []float64
	worst                             float64 // worst slice's p99 over the headline cells
	layer                             map[string]float64
}

// readGrid extracts a grid workload's metrics and checks every cell it
// reads is present and finite.
func (m *measurer) readGrid(w *workloadDef, g *harness.Grid) (gridFacts, []string) {
	var missing []string
	if len(g.Workloads) == 0 || len(g.Variants) == 0 {
		missing = append(missing, g.Title+": empty grid")
	}
	col := func(metric, variant string) []float64 {
		var xs []float64
		for _, wl := range g.Workloads {
			c := harness.Cell{Workload: wl, Variant: variant}
			var v float64
			var ok bool
			if metric == "" {
				v, ok = g.Mean[c]
			} else {
				v, ok = g.Aux[metric][c]
			}
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				missing = append(missing, fmt.Sprintf("%q %s/%s", metric, wl, variant))
			}
			xs = append(xs, v)
		}
		return xs
	}
	s := w.grid
	f := gridFacts{layer: map[string]float64{}}
	f.means, f.p99s, f.baseP99s = col("", s.head), col(s.p99, s.head), col(s.p99, s.base)
	f.meanRatios = ratios(f.means, col("", s.base))
	f.worst = slices.Max(col(s.worst, s.head))
	s.counters(m, w, g, &f, col)
	return f, missing
}

// poolGrid pools the simulated end-to-end metrics over every seed
// variant's grid. Levels are arithmetic means over the headline cells, so
// a few cells whose tail flips between a GC-free and a GC-bound p99 from
// one seed to the next cannot swing them; steer_vs_base is the geometric
// mean of the per-row ratios (the paper's Fig. 7a statistic), and
// steer_p99_vs_base the ratio of the pooled p99s.
func poolGrid(refs []*gridRef) map[string]float64 {
	var means, p99s, worsts, meanRatios []float64
	var head, base float64
	for _, r := range refs {
		f := r.facts
		means = append(means, f.means...)
		p99s = append(p99s, f.p99s...)
		worsts = append(worsts, f.worst)
		meanRatios = append(meanRatios, f.meanRatios...)
		head += sum(f.p99s)
		base += sum(f.baseP99s)
	}
	return map[string]float64{
		"sim_mean_us":       mean(means),
		"sim_p99_us":        mean(p99s),
		"sim_worst_p99_us":  mean(worsts),
		"steer_vs_base":     geomean(meanRatios),
		"steer_p99_vs_base": head / base,
	}
}

// ratios returns a[i]/b[i] for every row where both are positive.
func ratios(a, b []float64) []float64 {
	var out []float64
	for i := range a {
		if a[i] > 0 && b[i] > 0 {
			out = append(out, a[i]/b[i])
		}
	}
	return out
}

// gridRef is the first run of one seed variant: every later run of the
// variant must reproduce it.
type gridRef struct {
	fingerprint string
	facts       gridFacts
}

// runGrid measures a grid workload: a warm-up run, then timed runs at
// nproc workers cycling through the seed variants, each preceded by a
// timed single-cell set-up. The traced run stays on variant 0 and adds the
// 1-worker speed-up and profiled runs.
func (m *measurer) runGrid(w *workloadDef, r *wlRun) error {
	nv := m.gridVariants()
	if m.mode == modeLayers {
		nv = 1
	}
	refs := make([]*gridRef, nv)
	run := func(v, workers, rep int, what string) (*gridRun, error) {
		g, err := m.gridRep(w, v, workers, rep)
		if err != nil {
			return nil, err
		}
		fp := fmt.Sprintf("%v %v", g.g.Mean, g.g.Aux)
		if refs[v] == nil {
			facts, missing := m.readGrid(w, g.g)
			for _, s := range missing {
				r.fail("missing or non-finite grid cell: %s", s)
			}
			refs[v] = &gridRef{fingerprint: fp, facts: facts}
		} else if fp != refs[v].fingerprint {
			r.fail("%s: grid of seed variant %d differs from its first run", what, v)
		}
		r.attempted += refs[v].facts.attempted
		r.failed += refs[v].facts.failed
		return g, nil
	}
	if _, err := run(0, m.nproc, 0, "warm-up run"); err != nil {
		return err
	}

	var wall0 []float64 // nproc wall times of variant 0, for the speed-up
	start := time.Now()
	for i := 0; i < nv || m.moreReps(i, start); i++ {
		v := i % nv
		newNs, genNs, heap, err := m.gridSetup(w, i+1)
		if err != nil {
			return err
		}
		g, err := run(v, m.nproc, i+1, fmt.Sprintf("timed run %d", i+1))
		if err != nil {
			return err
		}
		if v == 0 {
			wall0 = append(wall0, float64(g.wallNs))
		}
		a := float64(refs[v].facts.attempted)
		if m.mode != modeLayers {
			r.out.add("host_ns_per_req", float64(g.cpuNs)/a)
			r.out.add("wall_s", float64(g.wallNs)/1e9)
			r.out.add("setup_s", float64(newNs+genNs)/1e9)
			r.out.add("allocs_per_req", float64(g.allocs)/a)
			r.out.add("live_heap_mb", float64(heap)/(1<<20))
		}
		if m.mode != modeE2E {
			r.out.add("gcsteering.new_ms", float64(newNs)/1e6)
			r.out.add("workload.generate_ms", float64(genNs)/1e6)
			r.out.add("go.gc_cycles_per_kreq", float64(g.gcCycles)/a*1000)
		}
	}
	if m.mode != modeLayers {
		for name, v := range poolGrid(refs) {
			r.out.add(name, v)
		}
	}
	if m.mode == modeE2E {
		return nil
	}
	for name, v := range refs[0].facts.layer {
		r.out.add(name, v)
	}
	var serialNs []float64
	for i := 0; i < 3; i++ {
		g, err := run(0, 1, 0, "1-worker run")
		if err != nil {
			return err
		}
		serialNs = append(serialNs, float64(g.wallNs))
	}
	r.out.add("harness.speedup", median(serialNs)/median(wall0))

	return m.profile(w, r, func() error {
		_, err := run(0, m.nproc, 0, "profiled run")
		return err
	})
}
