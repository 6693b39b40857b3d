package harness

import (
	"gcsteering"
)

// crashScenario is one row of the crash-consistency grid: a workload, the
// power-cut instant as a fraction of the request stream, and an optional
// fault plan so the cut can land mid-rebuild. The cut is anchored to an
// arrival (the cutFrac-th request's timestamp, nudged slightly later) so
// it lands inside a burst with stripe writes in flight — a wall-clock
// fraction would often fall into the traces' long quiet gaps.
type crashScenario struct {
	name     string
	workload string
	cutFrac  float64
	rebuild  bool
}

// crashScenarios are the three crash regimes:
//
//   - quiet: the cut lands early in a mixed workload, before garbage
//     collection ramps up — few stripe writes in flight.
//   - gc-storm: the cut lands deep inside a write-dominated trace with the
//     array's GC running hot, so the write pipeline (and the set of open
//     parity updates) is as busy as it gets.
//   - rebuild: a member fails first and the cut interrupts the
//     reconstruction — the remount comes back degraded, restarts the
//     rebuild from zero, and still owes the resync.
func crashScenarios() []crashScenario {
	return []crashScenario{
		{name: "quiet", workload: "hm_0", cutFrac: 0.20},
		{name: "gc-storm", workload: "HPC_W", cutFrac: 0.70},
		{name: "rebuild", workload: "Fin1", cutFrac: 0.25, rebuild: true},
	}
}

// plan cuts power just after the cutFrac-th arrival, when stripe writes
// are in flight. In the rebuild regime it first fails a member at the
// 10%-request arrival, with the rebuild paced to span roughly half the
// trace (the faults grid's sizing rule), so the cut interrupts it
// mid-flight.
func (sc crashScenario) plan(c *gcsteering.Config, tr gcsteering.Trace) {
	arrivalMs := func(frac float64) float64 {
		return tr[int(float64(len(tr)-1)*frac)].Timestamp.Seconds() * 1000
	}
	c.PowerLossAtMs = arrivalMs(sc.cutFrac) + 0.2
	if sc.rebuild {
		c.Fault = gcsteering.FaultPlan{
			Failures:      []gcsteering.DiskFault{{Disk: 2, AtMs: arrivalMs(0.10)}},
			RepairDelayMs: 5,
			RebuildMBps:   rebuildBandwidthMBps(c.Capacity(), c.Disks, traceSeconds(tr)*0.45),
			RebuildTarget: gcsteering.RebuildToSpare,
		}
	}
}

// CrashConsist runs the crash-consistency grid: three crash regimes ×
// {journal, no-journal} on the baseline LGC array (the steering staging
// region is volatile, so crash runs exercise the plain local-GC scheme).
// The journal column is the write-hole argument made quantitative: the
// same cuts, a resync scoped to the dirty stripes instead of the whole
// array, zero inconsistency left behind either way — but the unjournaled
// array serves during its full-array walk, the window the journal closes.
func CrashConsist(o Options) (*Grid, error) {
	scenarios := make(map[string]crashScenario)
	var rows []string
	for _, sc := range crashScenarios() {
		scenarios[sc.name] = sc
		rows = append(rows, sc.name)
	}
	vs := []variant{{"journal", func(c *gcsteering.Config) { c.IntentJournal = true }}, {"no-journal", unchanged}}
	g := newGrid("Crash consistency: power loss mid-write, intent journal vs full-scrub remount",
		rows, names(vs))
	run := func(memo *gcsteering.Warmup, cfg gcsteering.Config, row string) (*gcsteering.Results, error) {
		sc := scenarios[row]
		if sc.rebuild {
			reserveForRebuild(&cfg)
		}
		return replay(memo, cfg, sc.workload, o.maxRequests(), sc.plan)
	}
	return runGrid(o, g, vs, lgc.set, run, func(c Cell, r *gcsteering.Results) {
		cr := r.Crash
		g.Mean[c] = r.Latency.Mean / 1e3
		g.addAux("inconsistent stripes", c, float64(cr.InconsistentStripes))
		g.addAux("resync found", c, float64(cr.ResyncFound))
		g.addAux("dirty stripes (journal scope)", c, float64(cr.DirtyStripes))
		g.addAux("torn pages", c, float64(cr.TornPages))
		g.addAux("resync stripes walked", c, float64(cr.ResyncStripesWalked))
		g.addAux("resync time (ms)", c, cr.ResyncDuration.Seconds()*1000)
		g.addAux("post-crash p99 (µs)", c, float64(r.Latency.P99)/1e3)
		g.addAux("in-flight lost", c, float64(cr.InFlightLost))
	})
}
