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

// CrashConsist runs the crash-consistency grid: three crash regimes ×
// {journal, no-journal} on the baseline LGC array (the steering staging
// region is volatile, so crash runs exercise the plain local-GC scheme).
// The journal column is the write-hole argument made quantitative: the
// same cuts, a resync scoped to the dirty stripes instead of the whole
// array, zero inconsistency left behind either way — but the unjournaled
// array serves during its full-array walk, the window the journal closes.
func CrashConsist(o Options) (*Grid, error) {
	scenarios := crashScenarios()
	variants := []string{"journal", "no-journal"}
	workloads := make([]string, len(scenarios))
	for i, sc := range scenarios {
		workloads[i] = sc.name
	}
	g := newGrid("Crash consistency: power loss mid-write, intent journal vs full-scrub remount",
		workloads, variants)

	var jobs []cellJob
	for _, sc := range scenarios {
		for _, journal := range []bool{true, false} {
			sc, journal := sc, journal
			variant := variants[1]
			if journal {
				variant = variants[0]
			}
			cfg := o.base()
			cfg.Scheme = gcsteering.SchemeLGC
			cfg.IntentJournal = journal
			if sc.rebuild {
				cfg.ReservedFrac = 0.30
			}
			jobs = append(jobs, cellJob{
				cell: Cell{sc.name, variant},
				run: func() (any, error) {
					sys, err := gcsteering.New(cfg)
					if err != nil {
						return nil, err
					}
					tr, err := sys.GenerateWorkload(sc.workload, o.maxRequests())
					if err != nil {
						return nil, err
					}
					dur := tr[len(tr)-1].Timestamp.Seconds()
					cut := tr[int(float64(len(tr)-1)*sc.cutFrac)].Timestamp
					cfg := cfg
					cfg.PowerLossAtMs = cut.Seconds()*1000 + 0.2
					if sc.rebuild {
						// Fail a member at the 10%-request arrival (so it
						// precedes the cut) with the rebuild paced to span
						// roughly half the trace, so the cut interrupts it
						// mid-flight (the faults grid's sizing rule).
						failAt := tr[int(float64(len(tr)-1)*0.10)].Timestamp
						diskBytes := float64(sys.Capacity()) / float64(cfg.Disks-1)
						cfg.Fault = gcsteering.FaultPlan{
							Failures:      []gcsteering.DiskFault{{Disk: 2, AtMs: failAt.Seconds() * 1000}},
							RepairDelayMs: 5,
							RebuildMBps:   diskBytes / 1e6 / (dur * 0.45),
							RebuildTarget: gcsteering.RebuildToSpare,
						}
					}
					sys, err = gcsteering.New(cfg)
					if err != nil {
						return nil, err
					}
					return sys.Replay(tr)
				},
				post: func(c Cell, payload any) {
					r := payload.(*gcsteering.Results)
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
				},
			})
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
}
