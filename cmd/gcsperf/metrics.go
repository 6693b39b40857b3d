package main

import (
	"math"
	"sort"
)

// metricDef is one metric of the benchmark. The table below is the
// program's copy of BENCHMARK.json (main_test.go holds the two equal):
// end-to-end metrics carry the bound by which a change may worsen them,
// per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  bool
}

func e2e(name, unit string, bound float64) metricDef {
	return metricDef{Name: name, Unit: unit, Better: "lower", Bound: bound}
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Layer: true}
}

// metricTable lists every metric in output order. Host timings and memory
// come from untraced reps; sim_* and steer_* are simulated-time results,
// deterministic for a seed. Each bound is about three times the spread
// measured across ten seeds on a shared 2-vCPU VM, capped at 0.25: host
// timings there vary by 5-20% from run to run, mostly through the garbage
// collector, and the simulated tails by up to 11% from seed to seed.
var metricTable = []metricDef{
	e2e("host_ns_per_req", "ns", 0.25),
	e2e("wall_s", "s", 0.25),
	e2e("setup_s", "s", 0.25),
	e2e("allocs_per_req", "count", 0.05),
	e2e("live_heap_mb", "MiB", 0.15),
	e2e("sim_mean_us", "us", 0.20),
	e2e("sim_p99_us", "us", 0.25),
	e2e("sim_worst_p99_us", "us", 0.20),
	e2e("steer_vs_base", "ratio", 0.15),
	e2e("steer_p99_vs_base", "ratio", 0.25),

	// Microbenchmarks on fixed bench-owned inputs.
	layer("sim.at_step_ns", "ns", "lower"),
	layer("sim.at_step_allocs", "count", "lower"),
	layer("flash.write_gc_ns", "ns", "lower"),
	layer("flash.write_gc_allocs", "count", "lower"),
	layer("ssd.write_ns", "ns", "lower"),
	layer("ssd.write_allocs", "count", "lower"),
	layer("ssd.prefill_ms", "ms", "lower"),
	layer("raid.full_stripe_write_ns", "ns", "lower"),
	layer("raid.full_stripe_write_allocs", "count", "lower"),
	layer("raid.rmw_write_ns", "ns", "lower"),
	layer("raid.rmw_write_allocs", "count", "lower"),
	layer("raid.read_ns", "ns", "lower"),
	layer("raid.read_allocs", "count", "lower"),
	layer("core.route_gc_ns", "ns", "lower"),
	layer("core.route_gc_allocs", "count", "lower"),
	layer("core.reclaim_ns_per_page", "ns", "lower"),
	layer("metrics.observe_ns", "ns", "lower"),
	layer("metrics.observe_allocs", "count", "lower"),
	layer("obs.emit_off_ns", "ns", "lower"),
	layer("obs.emit_on_ns", "ns", "lower"),
	layer("workload.generate_ns_per_req", "ns", "lower"),

	// Counters of the replay workloads, from Results and the obs stream.
	layer("sim.events_per_req", "1/req", "lower"),
	layer("flash.write_amp", "ratio", "lower"),
	layer("ssd.gc_episodes_per_kreq", "1/kreq", "lower"),
	layer("ssd.gc_duty", "ratio", "lower"),
	layer("ssd.erases_per_kreq", "1/kreq", "lower"),
	layer("raid.subops_per_req", "1/req", "lower"),
	layer("raid.subops.data_read", "1/req", "lower"),
	layer("raid.subops.data_write", "1/req", "lower"),
	layer("raid.subops.old_data_read", "1/req", "lower"),
	layer("raid.subops.parity_read", "1/req", "lower"),
	layer("raid.subops.parity_write", "1/req", "lower"),
	layer("raid.subops_during_gc_frac", "ratio", "lower"),
	layer("core.redirect_ratio", "ratio", "higher"),
	layer("core.redirected_read_pages_per_req", "1/req", "higher"),
	layer("core.redirected_write_pages_per_req", "1/req", "higher"),
	layer("core.migrations_per_kreq", "1/kreq", "lower"),
	layer("core.reclaimed_pages_per_req", "1/req", "lower"),
	layer("core.alloc_fallbacks_per_kreq", "1/kreq", "lower"),
	layer("gcsteering.new_ms", "ms", "lower"),
	layer("workload.generate_ms", "ms", "lower"),
	layer("go.gc_cycles_per_kreq", "1/kreq", "lower"),
	layer("obs.events_per_req", "1/req", "lower"),
	layer("obs.bytes_per_req", "B/req", "lower"),
	layer("obs.trace_overhead", "ratio", "lower"),
	layer("metrics.p50_us", "us", "lower"),
	layer("metrics.p999_us", "us", "lower"),
	layer("metrics.samples", "count", "higher"),
	layer("metrics.gc_samples", "count", "higher"),

	// Counters of the grid workloads.
	layer("harness.speedup", "ratio", "higher"),
	layer("sched.ggc_gc_vs_lgc", "ratio", "lower"),
	layer("core.steer_gc_vs_lgc", "ratio", "lower"),
	layer("cluster.redirects", "count", "higher"),
	layer("cluster.shed", "count", "lower"),
	layer("cluster.rejected", "count", "lower"),
	layer("cluster.wov_ms", "ms", "lower"),

	// Share of profiled CPU samples per package, every workload.
	layer("cpu.gcsteering", "ratio", "lower"),
	layer("cpu.sim", "ratio", "lower"),
	layer("cpu.flash", "ratio", "lower"),
	layer("cpu.ssd", "ratio", "lower"),
	layer("cpu.sched", "ratio", "lower"),
	layer("cpu.raid", "ratio", "lower"),
	layer("cpu.core", "ratio", "lower"),
	layer("cpu.metrics", "ratio", "lower"),
	layer("cpu.obs", "ratio", "lower"),
	layer("cpu.workload", "ratio", "lower"),
	layer("cpu.harness", "ratio", "lower"),
	layer("cpu.cluster", "ratio", "lower"),
	layer("cpu.rebuild", "ratio", "lower"),
	layer("cpu.other", "ratio", "lower"),
	layer("cpu.runtime_bg", "ratio", "lower"),
	layer("cpu.samples", "count", "higher"),
}

// samples collects the measured values of one workload run, keyed by
// metric name. A deterministic metric holds one value; a timed one holds
// one value per rep.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// summary is a metric's distribution over the reps of one run.
type summary struct {
	Median, P25, P75 float64
	N                int
}

// summarize returns the median and quartiles of xs, computed like Python's
// statistics.quantiles(xs, n=4) with its default exclusive method, so the
// figures match the ones the benchmark's acceptance check computes.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return summary{Median: s[0], P25: s[0], P75: s[0], N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: q(2), P25: q(1), P75: q(3), N: n}
}

// spread is the quartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.P75-s.P25) / math.Abs(s.Median)
}

// rankQuantile returns the nearest-rank q-quantile of sorted values.
func rankQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// geomean returns the geometric mean of positive values (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func median(xs []float64) float64 { return summarize(xs).Median }
