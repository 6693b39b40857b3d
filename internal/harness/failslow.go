package harness

import (
	"gcsteering"
)

// FailSlow runs the fail-slow tolerance grid: every cell replays the same
// trace while one member is slowed by 8 ms per page op for most of the
// run (a fail-slow device, not a failed one — RAID redundancy never
// engages on its own; the magnitude matches the 10-100x firmware-stall
// slowdowns of the fail-slow literature) and a low rate of transient read
// errors exercises the bounded-retry path everywhere. The variants toggle the two
// fail-slow defenses against a common baseline:
//
//   - "quarantine" enables the per-device health monitor: the circuit
//     breaker opens on the slow member, steering redirects around it like
//     a collecting disk (and migrates its hot read pages to staging), and
//     half-open probes reinstate it once the slowdown window closes.
//   - "hedge" races parity reconstruct-reads against direct reads whose
//     home member is mid-GC, fail-slow, or quarantined.
//
// All variants run with retries enabled (MaxRetries 2) so the
// retries-with-backoff machinery is part of the determinism envelope the
// grid regression tests pin down.
func FailSlow(o Options) (*Grid, error) {
	hedge := func(c *gcsteering.Config) { c.HedgedReads = true }
	quarantine := func(c *gcsteering.Config) { c.Quarantine = true }
	vs := []variant{{"none", unchanged}, {"hedge", hedge}, {"quarantine", quarantine},
		{"quarantine+hedge", func(c *gcsteering.Config) { quarantine(c); hedge(c) }}}
	g := newGrid("Fail-slow tolerance: one member +8 ms/op from 5% to 90% of the trace, transient read errors with bounded retries, health-quarantine and hedged reads",
		[]string{"HPC_R", "Fin1", "hm_0"}, names(vs))
	retries := func(c *gcsteering.Config) { c.MaxRetries = 2 }
	// Slow disk 2 on all channels from 5% to 90% of the trace: long enough
	// that the quarantine pays for its hysteresis many times over, with a
	// healthy tail so the reinstatement probes fire inside the measured
	// run. The +8 ms/op magnitude is a firmware-stall-class fail-slow fault
	// — severe enough that serving the member's reads from its peers is
	// clearly worth the reconstruct fan-in.
	slow := func(c *gcsteering.Config, tr gcsteering.Trace) {
		dur := traceSeconds(tr)
		c.Fault = gcsteering.FaultPlan{
			Slowdowns: []gcsteering.DiskSlowdown{{
				Disk:         2,
				Channel:      -1,
				StartMs:      dur * 1000 * 0.05,
				DurationMs:   dur * 1000 * 0.85,
				ExtraPerOpUs: 8000,
			}},
			TransientReadErrorRate: 1e-4,
		}
	}
	return runGrid(o, g, vs, retries, single(o, slow), func(c Cell, r *gcsteering.Results) {
		g.Mean[c] = r.Latency.Mean / 1e3
		g.addAux("read p99 (µs)", c, float64(r.ReadLatency.P99)/1e3)
		g.addAux("read mean (µs)", c, r.ReadLatency.Mean/1e3)
		g.addAux("quarantines", c, float64(r.Robust.Quarantines))
		g.addAux("reinstatements", c, float64(r.Robust.Reinstatements))
		g.addAux("quarantine time (ms)", c, float64(r.Robust.QuarantineTime)/1e6)
		g.addAux("transient errors", c, float64(r.Robust.TransientErrors))
		g.addAux("retries", c, float64(r.Robust.Retries))
		g.addAux("hedged reads", c, float64(r.Integrity.HedgedReads))
	})
}
