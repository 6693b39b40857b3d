package harness

import (
	"gcsteering"
)

// Faults runs the reliability experiment grid: each cell fails one member
// mid-trace under an active fault plan (latent sector errors included) and
// measures the window of vulnerability, the rebuild time and the
// degraded-mode response times per GC scheme. Every scheme rebuilds onto a
// dedicated spare; GC-Steering runs its recovery configuration of §III-D
// case ① — dedicated staging that absorbs the redirected user I/O during
// reconstruction, relieving the survivors the rebuild is reading — the
// mechanism behind its shorter window of vulnerability.
func Faults(o Options) (*Grid, error) {
	vs := []variant{lgc, ggc, steering("GC-Steering", gcsteering.StagingDedicated)}
	g := newGrid("Reliability: failure at 10% of the trace, automatic rebuild, latent sector errors",
		fig8Workloads(), names(vs))
	// Fail disk 2 at 10% of the trace and size the rebuild bandwidth cap so
	// an uncontended rebuild spans roughly half the remaining trace: the cap
	// never binds alone, so the measured rebuild time reflects each scheme's
	// device contention (GC stalls on the survivor reads).
	fail := func(c *gcsteering.Config, tr gcsteering.Trace) {
		dur := traceSeconds(tr)
		c.Fault = gcsteering.FaultPlan{
			Failures:       []gcsteering.DiskFault{{Disk: 2, AtMs: dur * 1000 * 0.10}},
			UREPerPageRead: 5e-5,
			RepairDelayMs:  50,
			RebuildMBps:    rebuildBandwidthMBps(c.Capacity(), c.Disks, dur*0.45),
			RebuildTarget:  gcsteering.RebuildToSpare,
		}
	}
	return runGrid(o, g, vs, reserveForRebuild, single(o, fail), func(c Cell, r *gcsteering.Results) {
		g.Mean[c] = r.Latency.Mean / 1e3
		g.addAux("window of vulnerability (s)", c, r.Fault.WindowOfVulnerability.Seconds())
		g.addAux("rebuild time (s)", c, r.Fault.RebuildTime.Seconds())
		g.addAux("degraded mean (µs)", c, r.Fault.DegradedLatency.Mean/1e3)
		g.addAux("degraded p99 (µs)", c, float64(r.Fault.DegradedLatency.P99)/1e3)
		g.addAux("UREs", c, float64(r.Fault.UREs))
		g.addAux("data loss events", c, float64(r.Fault.DataLossEvents))
	})
}
