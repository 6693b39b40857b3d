package harness

import (
	"gcsteering"
)

// Scrub runs the self-healing experiment grid: every cell replays the same
// trace over an array seeded with persistent latent sector errors and
// silent corruption, fails one member mid-trace, and rebuilds it. The
// variants toggle the two self-healing mechanisms against a common
// baseline:
//
//   - "scrub" adds a patrol scrub pass before the failure, repairing the
//     seeded defects in place — the UREs the rebuild then encounters on the
//     survivors must strictly shrink (the §III-D exposure argument).
//   - "hedge" races parity reconstruct-reads against direct reads whose
//     member is mid-GC, attacking the GC-phase read tail.
//
// End-to-end checksums are on everywhere so silent corruption is detected
// (and counted) identically across variants; UREPerPageRead stays zero so
// every URE comes from the deterministic seeded defect sets and the
// scrub/no-scrub comparison is exact, not statistical.
func Scrub(o Options) (*Grid, error) {
	type variant struct {
		name  string
		scrub bool
		hedge bool
	}
	variants := []variant{
		{"baseline", false, false},
		{"scrub", true, false},
		{"hedge", false, true},
		{"scrub+hedge", true, true},
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	workloads := []string{"HPC_R", "Fin1", "hm_0"}
	g := newGrid("Self-healing: seeded latent/corrupt pages, failure at 50% of the trace, patrol scrub and GC-hedged reads",
		workloads, names)

	var jobs []cellJob
	for _, w := range g.Workloads {
		for _, v := range variants {
			w, v := w, v
			cfg := o.base()
			// LGC keeps the read path free of steering so the hedge columns
			// isolate the hedged-read mechanism; checksums verify every read.
			cfg.Scheme = gcsteering.SchemeLGC
			cfg.Checksums = true
			cfg.HedgedReads = v.hedge
			jobs = append(jobs, cellJob{
				cell: Cell{w, v.name},
				run: func() (any, error) {
					sys, err := gcsteering.New(cfg)
					if err != nil {
						return nil, err
					}
					tr, err := sys.GenerateWorkload(w, o.maxRequests())
					if err != nil {
						return nil, err
					}
					// Fail disk 2 at 50% of the trace; size the scrub cap so
					// one full patrol pass (all stripes on all members) lands
					// inside the first ~40%, and the rebuild cap so the
					// reconstruction spans roughly 40% of the trace.
					dur := tr[len(tr)-1].Timestamp.Seconds()
					failAtMs := dur * 1000 * 0.50
					diskBytes := float64(sys.Capacity()) / float64(cfg.Disks-1)
					arrayBytes := diskBytes * float64(cfg.Disks)
					plan := gcsteering.FaultPlan{
						Failures:        []gcsteering.DiskFault{{Disk: 2, AtMs: failAtMs}},
						LatentPageRate:  3e-4,
						CorruptPageRate: 1e-4,
						RepairDelayMs:   50,
						RebuildMBps:     diskBytes / 1e6 / (dur * 0.40),
						RebuildTarget:   gcsteering.RebuildToSpare,
					}
					// The plan and scrub cap need the trace duration and the
					// capacity; rebuild the system with them set. The trace is
					// reused — neither knob affects the array geometry.
					cfg := cfg
					cfg.Fault = plan
					if v.scrub {
						cfg.ScrubMBps = arrayBytes / 1e6 / (dur * 0.35)
						cfg.ScrubPasses = 1
					}
					sys, err = gcsteering.New(cfg)
					if err != nil {
						return nil, err
					}
					return sys.Replay(tr)
				},
				post: func(c Cell, payload any) {
					r := payload.(*gcsteering.Results)
					g.Mean[c] = r.Latency.Mean / 1e3
					g.addAux("rebuild UREs", c, float64(r.Fault.RebuildUREs))
					g.addAux("data loss events", c, float64(r.Fault.DataLossEvents))
					g.addAux("gc-phase read p99 (µs)", c, float64(r.Phases.GCRead.P99)/1e3)
					g.addAux("hedged reads", c, float64(r.Integrity.HedgedReads))
					g.addAux("hedge recon wins", c, float64(r.Integrity.HedgeReconWins))
					g.addAux("checksum errors detected", c, float64(r.Integrity.ChecksumErrors))
					g.addAux("scrub units repaired", c, float64(r.Scrub.UnitsRepaired))
					g.addAux("scrub pages fixed", c,
						float64(r.Scrub.LatentPagesRepaired+r.Scrub.CorruptPagesRepaired))
				},
			})
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
}
