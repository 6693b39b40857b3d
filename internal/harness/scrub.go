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
	// The scrub columns turn the patrol scrubber on with a placeholder
	// bandwidth cap; fail sizes the real cap from the trace below.
	scrub := func(c *gcsteering.Config) { c.ScrubMBps = 1 }
	hedge := func(c *gcsteering.Config) { c.HedgedReads = true }
	vs := []variant{{"baseline", unchanged}, {"scrub", scrub}, {"hedge", hedge},
		{"scrub+hedge", func(c *gcsteering.Config) { scrub(c); hedge(c) }}}
	g := newGrid("Self-healing: seeded latent/corrupt pages, failure at 50% of the trace, patrol scrub and GC-hedged reads",
		[]string{"HPC_R", "Fin1", "hm_0"}, names(vs))
	// LGC keeps the read path free of steering so the hedge columns isolate
	// the hedged-read mechanism; checksums verify every read.
	setup := func(c *gcsteering.Config) {
		c.Scheme = gcsteering.SchemeLGC
		c.Checksums = true
	}
	// Fail disk 2 at 50% of the trace; size the scrub cap so one full
	// patrol pass (all stripes on all members) lands inside the first ~40%,
	// and the rebuild cap so the reconstruction spans roughly 40% of the
	// trace.
	fail := func(c *gcsteering.Config, tr gcsteering.Trace) {
		dur := traceSeconds(tr)
		c.Fault = gcsteering.FaultPlan{
			Failures:        []gcsteering.DiskFault{{Disk: 2, AtMs: dur * 1000 * 0.50}},
			LatentPageRate:  3e-4,
			CorruptPageRate: 1e-4,
			RepairDelayMs:   50,
			RebuildMBps:     rebuildBandwidthMBps(c.Capacity(), c.Disks, dur*0.40),
			RebuildTarget:   gcsteering.RebuildToSpare,
		}
		if c.ScrubMBps > 0 {
			arrayBytes := float64(c.Capacity()) / float64(c.Disks-1) * float64(c.Disks)
			c.ScrubMBps = arrayBytes / 1e6 / (dur * 0.35)
		}
	}
	return runGrid(o, g, vs, setup, single(o, fail), func(c Cell, r *gcsteering.Results) {
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
	})
}
