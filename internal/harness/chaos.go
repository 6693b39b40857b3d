package harness

import (
	"fmt"

	"gcsteering"
	"gcsteering/internal/cluster"
)

// chaosArrays/chaosTenants size the failure-domain grid: enough arrays
// that losing one leaves real capacity to fail over onto, small enough to
// regenerate in seconds.
const (
	chaosArrays  = 6
	chaosTenants = 12
)

// chaosScenario is one row of the failure-domain grid.
type chaosScenario struct {
	name   string
	faults []cluster.ArrayFault
	plan   cluster.ChaosPlan
}

// chaosScenarios are the three adversity regimes:
//
//   - crash: the fleet's busiest array suffers a timed whole-array outage inside the
//     workload's dense opening burst, then recovers — the failover /
//     dirty-backlog / failback arc.
//   - perm-crash: the same array never comes back, so redundancy must be
//     restored onto a spare array picked off the ring (and without
//     replication the reads it held are simply gone).
//   - chaos-storm: the seeded chaos layer drives a timed crash, a replica
//     link slowdown, and a correlated GC storm at once — the correlated
//     worst case none of the single-fault rows exercise.
func chaosScenarios() []chaosScenario {
	return []chaosScenario{
		{
			name:   "crash",
			faults: []cluster.ArrayFault{{Array: 4, AtMs: 80, DowntimeMs: 250}},
		},
		{
			name:   "perm-crash",
			faults: []cluster.ArrayFault{{Array: 4, AtMs: 80}},
		},
		{
			name: "chaos-storm",
			plan: cluster.ChaosPlan{
				Seed:            1719,
				Crashes:         1,
				CrashDowntimeMs: 200,
				LinkSlowdowns:   1,
				LinkExtraUs:     150,
				GCStorms:        1,
				StormExtraUs:    120,
			},
		},
	}
}

// chaosConfig assembles the fleet configuration for one cell.
func chaosConfig(o Options, sc chaosScenario, replicate bool) cluster.Config {
	return cluster.Config{
		Arrays:          chaosArrays,
		Policy:          cluster.PolicySteering,
		Workers:         o.workers(),
		Seed:            o.Seed,
		Base:            o.base(),
		Tenants:         tenants(o, chaosTenants, []string{"Fin1", "hm_0", "HPC_W", "prxy_0"}, 1),
		ReplicateWrites: replicate,
		ReplicaLinkUs:   50,
		ArrayFaults:     sc.faults,
		Chaos:           sc.plan,
	}
}

// Chaos runs the failure-domain grid: three adversity scenarios ×
// {no-repl, replicated} over a 6-array, 12-tenant fleet under GC-aware
// routing. The replicated column is the paper's reliability argument made
// quantitative: the same crashes, measurably higher availability, zero
// data loss.
func Chaos(o Options) (*Grid, error) {
	scenarios := chaosScenarios()
	variants := []string{"no-repl", "replicated"}
	workloads := make([]string, len(scenarios))
	for i, sc := range scenarios {
		workloads[i] = sc.name
	}
	g := newGrid(fmt.Sprintf("Failure domains: %d arrays × %d tenants, whole-array crashes and chaos, unreplicated vs synchronously replicated writes",
		chaosArrays, chaosTenants), workloads, variants)

	memo := new(gcsteering.Warmup)
	for _, sc := range scenarios {
		for vi, repl := range []bool{false, true} {
			cc := chaosConfig(o, sc, repl)
			cc.Warmup = memo
			r, err := cluster.Run(cc)
			if err != nil {
				return nil, fmt.Errorf("chaos %s/%s: %w", sc.name, variants[vi], err)
			}
			c := Cell{sc.name, variants[vi]}
			g.Mean[c] = r.Latency.Mean / 1e3
			g.addAux("availability", c, r.Availability)
			g.addAux("failed", c, float64(r.Failed))
			g.addAux("data-loss reads", c, float64(r.DataLossEvents))
			g.addAux("read p99 (µs)", c, float64(r.ReadLatency.P99)/1e3)
			g.addAux("replicated writes", c, float64(r.Replicated))
			g.addAux("replica drops", c, float64(r.ReplicaDrops))
			var failMs, rereplMs float64
			for _, f := range r.Failures {
				if f.FailoverMs > failMs {
					failMs = f.FailoverMs
				}
				if f.RereplicationMs > rereplMs {
					rereplMs = f.RereplicationMs
				}
			}
			g.addAux("failover (ms)", c, failMs)
			g.addAux("re-replication (ms)", c, rereplMs)
		}
	}
	return g, nil
}
