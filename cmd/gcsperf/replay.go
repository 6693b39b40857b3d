package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"gcsteering"
)

// repFlags select the hooks a replay rep installs.
type repFlags int

const (
	repTraced   repFlags = 1 << iota // Config.Trace into an obsCounter
	repObserved                      // ObserveRequests records every settle
)

// replayOut is one replay rep. newNs, genNs and replayNs are process CPU
// nanoseconds of the three calls; wallNs is their wall-clock total.
type replayOut struct {
	res                    *gcsteering.Results
	n                      int
	newNs, genNs, replayNs int64
	wallNs                 int64
	allocs, gcCycles       uint64
	heap                   uint64
	events                 uint64
	lats                   []int64 // observed: response time by seq, -1 = rejected
	settles                []uint8 // observed: settle count by seq
	obs                    *obsCounter
}

// replayRep builds a fresh system, generates the workload's trace and
// replays it, timing each call from outside.
func (m *measurer) replayRep(w *workloadDef, scheme gcsteering.Scheme, flags repFlags, rep int) (*replayOut, error) {
	cfg := gcsteering.DefaultConfig()
	cfg.Scheme = scheme
	cfg.Seed += m.seed
	o := &replayOut{}
	if flags&repTraced != 0 {
		o.obs = &obsCounter{}
		cfg.Trace = gcsteering.NewTracer(o.obs)
	}
	runtime.GC()
	repSpan := m.spans.begin("rep "+scheme.String(), rep)
	defer m.spans.end(repSpan)

	sp := m.spans.begin("gcsteering.New", rep)
	t := startWatch()
	sys, err := gcsteering.New(cfg)
	newWall, newCPU := t.elapsed()
	m.spans.end(sp)
	if err != nil {
		return nil, err
	}
	sp = m.spans.begin("System.GenerateWorkload", rep)
	t = startWatch()
	tr, err := sys.GenerateWorkload(w.profile, m.scaled(w.requests))
	genWall, genCPU := t.elapsed()
	m.spans.end(sp)
	if err != nil {
		return nil, err
	}
	o.n = len(tr)
	if flags&repObserved != 0 {
		o.lats = make([]int64, len(tr))
		o.settles = make([]uint8, len(tr))
		sys.ObserveRequests(func(seq, latNs int64, rejected bool) {
			if seq < 0 || seq >= int64(len(tr)) {
				return // counted as a missing settle below
			}
			o.settles[seq]++
			o.lats[seq] = latNs
			if rejected {
				o.lats[seq] = -1
			}
		})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = m.spans.begin("System.Replay", rep)
	t = startWatch()
	res, err := sys.Replay(tr)
	replayWall, replayCPU := t.elapsed()
	m.spans.end(sp)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	if err := cfg.Trace.Flush(); err != nil {
		return nil, err
	}
	o.res = res
	o.newNs, o.genNs, o.replayNs = newCPU, genCPU, replayCPU
	o.wallNs = newWall + genWall + replayWall
	o.allocs = after.Mallocs - before.Mallocs
	o.gcCycles = uint64(after.NumGC - before.NumGC)
	o.events = sys.Events()
	runtime.GC()
	runtime.ReadMemStats(&after)
	o.heap = after.HeapAlloc
	runtime.KeepAlive(sys)
	runtime.KeepAlive(tr)
	return o, nil
}

// account adds a rep to the run's request totals and checks that every
// request settled: completed, rejected, or cancelled at its deadline.
func (r *wlRun) account(o *replayOut, what string) {
	rb := o.res.Robust
	r.attempted += int64(o.n)
	r.failed += rb.Rejected + rb.DeadlineExceeded
	if got := int64(o.res.Latency.Count) + rb.Rejected + rb.DeadlineExceeded; got != int64(o.n) {
		r.fail("%s: %d completed + %d rejected + %d deadline = %d, trace has %d requests",
			what, o.res.Latency.Count, rb.Rejected, rb.DeadlineExceeded, got, o.n)
	}
}

// fingerprint renders every simulated result of a run (the windowed series
// object excepted; VariabilityCV summarizes it), so two reps of one seed
// compare equal exactly when the simulation behaved identically.
func fingerprint(r *gcsteering.Results) string {
	c := *r
	c.Series = nil
	return fmt.Sprintf("%+v", c)
}

// exactLatencies returns the sorted response times of the settled requests
// of an observed rep, overall and for those that arrived during GC.
func exactLatencies(o *replayOut) (all, gc []int64) {
	for seq, lat := range o.lats {
		if lat < 0 {
			continue
		}
		all = append(all, lat)
		if o.obs != nil && seq < len(o.obs.arrivedInGC) && o.obs.arrivedInGC[seq] {
			gc = append(gc, lat)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(gc, func(i, j int) bool { return gc[i] < gc[j] })
	return all, gc
}

// runReplay measures a replay workload: a warm-up rep that fixes the
// reference results, the obs rep (traced and observed, checked against the
// reference), one untimed rep of the other scheme for the steering ratio,
// then timed untraced reps. The traced run adds profiled reps. Only the
// rep being measured is reachable while it runs, so live_heap_mb sees one
// system, its trace and its results.
func (m *measurer) runReplay(w *workloadDef, r *wlRun) error {
	warm, err := m.replayRep(w, w.scheme, 0, 0)
	if err != nil {
		return err
	}
	r.account(warm, "warm-up rep")
	ref := fingerprint(warm.res)

	obsRep, err := m.replayRep(w, w.scheme, repTraced|repObserved, 0)
	if err != nil {
		return err
	}
	r.account(obsRep, "obs rep")
	m.checkObsRep(obsRep, ref, r)
	all, gc := exactLatencies(obsRep)
	if m.mode != modeLayers {
		if err := m.simMetrics(w, r, obsRep, all, gc); err != nil {
			return err
		}
	}
	if m.mode != modeE2E {
		obsCounters(r.out, obsRep, all, gc)
	}
	obsReplayNs := obsRep.replayNs

	var replayNs []float64
	start := time.Now()
	for i := 0; m.moreReps(i, start); i++ {
		o, err := m.replayRep(w, w.scheme, 0, i+1)
		if err != nil {
			return err
		}
		r.account(o, fmt.Sprintf("timed rep %d", i+1))
		if fingerprint(o.res) != ref {
			r.fail("timed rep %d: simulated results differ from the warm-up rep of the same seed", i+1)
		}
		replayNs = append(replayNs, float64(o.replayNs))
		n := float64(o.n)
		if m.mode != modeLayers {
			r.out.add("host_ns_per_req", float64(o.replayNs)/n)
			r.out.add("wall_s", float64(o.wallNs)/1e9)
			r.out.add("setup_s", float64(o.newNs+o.genNs)/1e9)
			r.out.add("allocs_per_req", float64(o.allocs)/n)
			r.out.add("live_heap_mb", float64(o.heap)/(1<<20))
		}
		if m.mode != modeE2E {
			if i == 0 {
				// Counted untraced: the tracer adds engine events of its own.
				r.out.add("sim.events_per_req", float64(o.events)/n)
			}
			r.out.add("gcsteering.new_ms", float64(o.newNs)/1e6)
			r.out.add("workload.generate_ms", float64(o.genNs)/1e6)
			r.out.add("go.gc_cycles_per_kreq", float64(o.gcCycles)/n*1000)
		}
	}
	if m.mode == modeE2E {
		return nil
	}
	r.out.add("obs.trace_overhead", float64(obsReplayNs)/median(replayNs)-1)

	rep := len(replayNs)
	return m.profile(w, r, func() error {
		rep++
		o, err := m.replayRep(w, w.scheme, 0, rep)
		if err != nil {
			return err
		}
		r.account(o, fmt.Sprintf("profiled rep %d", rep))
		return nil
	})
}

// simMetrics records the simulated end-to-end metrics of the obs rep, whose
// sorted response times are all and gc (exactLatencies), plus
// the steering ratio from one rep of the scheme the workload does not time:
// GC-Steering over LGC on the same trace.
func (m *measurer) simMetrics(w *workloadDef, r *wlRun, obsRep *replayOut, all, gc []int64) error {
	other := gcsteering.SchemeSteering
	if w.scheme == gcsteering.SchemeSteering {
		other = gcsteering.SchemeLGC
	}
	alt, err := m.replayRep(w, other, repObserved, 0)
	if err != nil {
		return err
	}
	r.account(alt, "steering-ratio rep")
	altAll, _ := exactLatencies(alt)
	steer, steerAll, lgc, lgcAll := obsRep.res, all, alt.res, altAll
	if w.scheme != gcsteering.SchemeSteering {
		steer, steerAll, lgc, lgcAll = alt.res, altAll, obsRep.res, all
	}
	r.out.add("sim_mean_us", obsRep.res.Latency.Mean/1e3)
	r.out.add("sim_p99_us", float64(rankQuantile(all, 0.99))/1e3)
	r.out.add("sim_worst_p99_us", float64(rankQuantile(gc, 0.99))/1e3)
	r.out.add("steer_vs_base", steer.Latency.Mean/lgc.Latency.Mean)
	r.out.add("steer_p99_vs_base", float64(rankQuantile(steerAll, 0.99))/float64(rankQuantile(lgcAll, 0.99)))
	return nil
}

// obsCounters records the per-layer counters of the obs rep; all and gc
// are its sorted response times (exactLatencies).
func obsCounters(out samples, o *replayOut, all, gc []int64) {
	res, n, oc := o.res, float64(o.n), o.obs
	out.add("flash.write_amp", res.WriteAmp)
	out.add("ssd.gc_episodes_per_kreq", float64(res.GCEpisodes)/n*1000)
	out.add("ssd.gc_duty", res.GCDuty(len(res.Devices)))
	out.add("ssd.erases_per_kreq", float64(res.Erases)/n*1000)
	subops := float64(oc.subopTotal())
	out.add("raid.subops_per_req", subops/n)
	for kind, name := range []string{"data_read", "data_write", "old_data_read", "parity_read", "parity_write"} {
		out.add("raid.subops."+name, float64(oc.subops[kind])/n)
	}
	if subops > 0 {
		out.add("raid.subops_during_gc_frac", float64(oc.subopsGC)/subops)
	}
	st := res.Steering
	out.add("core.redirect_ratio", res.RedirectRatio)
	out.add("core.redirected_read_pages_per_req", float64(st.RedirectedReads)/n)
	out.add("core.redirected_write_pages_per_req", float64(st.RedirectedWrites)/n)
	out.add("core.migrations_per_kreq", float64(st.Migrations)/n*1000)
	out.add("core.reclaimed_pages_per_req", float64(st.ReclaimedPages)/n)
	out.add("core.alloc_fallbacks_per_kreq", float64(st.WriteAllocFallbacks)/n*1000)
	out.add("obs.events_per_req", float64(oc.events)/n)
	out.add("obs.bytes_per_req", float64(oc.bytes)/n)
	out.add("metrics.p50_us", float64(rankQuantile(all, 0.50))/1e3)
	out.add("metrics.p999_us", float64(rankQuantile(all, 0.999))/1e3)
	out.add("metrics.samples", float64(len(all)))
	out.add("metrics.gc_samples", float64(len(gc)))
}

// checkObsRep verifies the traced, observed rep: the tracer must leave the
// simulated results untouched, every request must settle exactly once, and
// the GC phase rebuilt from the event stream must match the phase the
// facade recorded.
func (m *measurer) checkObsRep(o *replayOut, ref string, r *wlRun) {
	if fingerprint(o.res) != ref {
		r.fail("obs rep: tracing changed the simulated results")
	}
	if o.obs.err != nil {
		r.fail("obs rep: %v", o.obs.err)
	}
	if o.obs.arrivals != int64(o.n) {
		r.fail("obs rep: %d arrival events for %d requests", o.obs.arrivals, o.n)
	}
	bad := 0
	for _, c := range o.settles {
		if c != 1 {
			bad++
		}
	}
	if bad > 0 {
		r.fail("obs rep: %d of %d requests did not settle exactly once", bad, o.n)
	}
	inGC := uint64(0)
	for _, g := range o.obs.arrivedInGC {
		if g {
			inGC++
		}
	}
	if inGC != o.res.Phases.GC.Count || o.res.Phases.Degraded.Count != 0 {
		r.fail("obs rep: %d GC-phase arrivals in the event stream, results record %d (%d degraded)",
			inGC, o.res.Phases.GC.Count, o.res.Phases.Degraded.Count)
	}
}
