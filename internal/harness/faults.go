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
	type variant struct {
		name   string
		set    func(*gcsteering.Config)
		target gcsteering.RebuildTarget
	}
	variants := []variant{
		{"LGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeLGC }, gcsteering.RebuildToSpare},
		{"GGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeGGC }, gcsteering.RebuildToSpare},
		{"GC-Steering", func(c *gcsteering.Config) {
			c.Scheme = gcsteering.SchemeSteering
			c.Staging = gcsteering.StagingDedicated
		}, gcsteering.RebuildToSpare},
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	g := newGrid("Reliability: failure at 10% of the trace, automatic rebuild, latent sector errors",
		fig8Workloads(), names)

	memo := new(gcsteering.Warmup)
	var jobs []cellJob
	for _, w := range g.Workloads {
		for _, v := range variants {
			w, v := w, v
			cfg := o.base()
			// As in Fig. 11, the reserved space must hold a failed member's
			// contents for the parallel workflow; every scheme gets the same
			// reservation so the array geometry is identical across variants.
			cfg.ReservedFrac = 0.30
			v.set(&cfg)
			jobs = append(jobs, cellJob{
				cell: Cell{w, v.name},
				run: func() (any, error) {
					sys, err := memo.New(cfg)
					if err != nil {
						return nil, err
					}
					tr, err := sys.GenerateWorkload(w, o.maxRequests())
					if err != nil {
						return nil, err
					}
					// Fail disk 2 at 10% of the trace and size the rebuild
					// bandwidth cap so an uncontended rebuild spans roughly
					// half the remaining trace: the cap never binds alone,
					// so the measured rebuild time reflects each scheme's
					// device contention (GC stalls on the survivor reads).
					dur := tr[len(tr)-1].Timestamp.Seconds()
					failAtMs := dur * 1000 * 0.10
					diskBytes := float64(sys.Capacity()) / float64(cfg.Disks-1)
					bw := diskBytes / 1e6 / (dur * 0.45)
					plan := gcsteering.FaultPlan{
						Failures:       []gcsteering.DiskFault{{Disk: 2, AtMs: failAtMs}},
						UREPerPageRead: 5e-5,
						RepairDelayMs:  50,
						RebuildMBps:    bw,
						RebuildTarget:  v.target,
					}
					// The plan was not known when the system was built;
					// rebuild a system whose config carries it. The trace is
					// reused, so both builds must size capacity identically
					// (the plan does not affect geometry).
					cfg := cfg
					cfg.Fault = plan
					sys, err = memo.New(cfg)
					if err != nil {
						return nil, err
					}
					return sys.Replay(tr)
				},
				post: func(c Cell, payload any) {
					r := payload.(*gcsteering.Results)
					g.Mean[c] = r.Latency.Mean / 1e3
					g.addAux("window of vulnerability (s)", c, r.Fault.WindowOfVulnerability.Seconds())
					g.addAux("rebuild time (s)", c, r.Fault.RebuildTime.Seconds())
					g.addAux("degraded mean (µs)", c, r.Fault.DegradedLatency.Mean/1e3)
					g.addAux("degraded p99 (µs)", c, float64(r.Fault.DegradedLatency.P99)/1e3)
					g.addAux("UREs", c, float64(r.Fault.UREs))
					g.addAux("data loss events", c, float64(r.Fault.DataLossEvents))
				},
			})
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
}
