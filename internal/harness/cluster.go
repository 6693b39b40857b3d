package harness

import (
	"fmt"

	"gcsteering"
	"gcsteering/internal/cluster"
)

// clusterArrays/clusterTenants size the fleet grid: large enough that
// consistent hashing produces genuinely uneven array load (the imbalance
// cluster steering exploits), small enough to regenerate in seconds.
const (
	clusterArrays  = 8
	clusterTenants = 16
)

// clusterScenario is one row of the fleet grid.
type clusterScenario struct {
	name     string
	profiles []string // tenant profiles, assigned round-robin
	scale    float64  // arrival scale applied to every tenant
	lgc      bool     // force uncoordinated intra-array GC (LGC)
	faults   []int    // arrays replaying under the fault plan
	plan     gcsteering.FaultPlan
}

// clusterScenarios are the three fleet regimes:
//
//   - steady-mix: balanced read/write tenants on healthy arrays — the
//     regime where routing should change little (a no-harm check).
//   - gc-heavy: write-heavy tenants at double arrival rate over LGC
//     arrays, so member GC episodes pepper the fleet and the router has
//     real windows to dodge.
//   - rebuild: two arrays lose a member early and reconstruct at low
//     bandwidth, serving degraded reads for most of the run — the
//     between-array analogue of the paper's Fig. 11.
func clusterScenarios() []clusterScenario {
	return []clusterScenario{
		{
			name:     "steady-mix",
			profiles: []string{"Fin1", "hm_0", "HPC_R", "prxy_0"},
			scale:    1,
		},
		{
			name:     "gc-heavy",
			profiles: []string{"HPC_W", "prxy_0", "Fin1"},
			scale:    2,
			lgc:      true,
		},
		{
			name:     "rebuild",
			profiles: []string{"HPC_R", "hm_0", "Fin1"},
			scale:    1,
			faults:   []int{0, 3},
			plan: gcsteering.FaultPlan{
				Failures:      []gcsteering.DiskFault{{Disk: 1, AtMs: 1}},
				RepairDelayMs: 1,
				RebuildMBps:   25,
			},
		},
	}
}

// tenants builds a fleet grid's n tenants, splitting the request budget
// evenly (at least 40 each). Profiles and QoS classes go round-robin, the
// arrival scale steps scale·(1, 1.25, 1.5), and every other tenant owns
// two volumes.
func tenants(o Options, n int, profiles []string, scale float64) []cluster.Tenant {
	qos := []cluster.QoS{cluster.Gold, cluster.Silver, cluster.Bronze}
	out := make([]cluster.Tenant, n)
	for i := range out {
		out[i] = cluster.Tenant{
			Name:         fmt.Sprintf("t%02d", i),
			Profile:      profiles[i%len(profiles)],
			QoS:          qos[i%len(qos)],
			Requests:     max(40, o.maxRequests()/n),
			ArrivalScale: scale * (1 + 0.25*float64(i%3)),
			Volumes:      1 + i%2,
		}
	}
	return out
}

// clusterConfig assembles the fleet configuration for one cell.
func clusterConfig(o Options, sc clusterScenario, policy cluster.Policy) cluster.Config {
	base := o.base()
	if sc.lgc {
		base.Scheme = gcsteering.SchemeLGC
	}
	return cluster.Config{
		Arrays:      clusterArrays,
		Policy:      policy,
		Workers:     o.workers(),
		Seed:        o.Seed,
		Base:        base,
		Tenants:     tenants(o, clusterTenants, sc.profiles, sc.scale),
		FaultArrays: sc.faults,
		Fault:       sc.plan,
	}
}

// Cluster runs the fleet-scale grid: three scenarios × {hash-only,
// gc-aware} routing over an 8-array, 16-tenant fleet. Each scenario is one
// cluster.Run under PolicySteering: its profile pass is the hash-only
// cell (ClusterResults.Baseline) and its steering pass the gc-aware cell,
// so both cells share one admission pass and one hash-only replay.
// Scenarios run sequentially — each run already fans its shards out over
// the worker pool, and sequential runs keep the grid deterministic
// trivially.
func Cluster(o Options) (*Grid, error) {
	scenarios := clusterScenarios()
	workloads := make([]string, len(scenarios))
	for i, sc := range scenarios {
		workloads[i] = sc.name
	}
	hash, aware := cluster.PolicyHash.String(), cluster.PolicySteering.String()
	g := newGrid(fmt.Sprintf("Fleet simulation: %d arrays × %d tenants, consistent-hash placement, hash-only vs GC/rebuild-aware routing",
		clusterArrays, clusterTenants), workloads, []string{hash, aware})

	memo := new(gcsteering.Warmup)
	for _, sc := range scenarios {
		cc := clusterConfig(o, sc, cluster.PolicySteering)
		cc.Warmup = memo
		r, err := cluster.Run(cc)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: %w", sc.name, err)
		}
		g.addCluster(Cell{sc.name, hash}, r.Baseline)
		g.addCluster(Cell{sc.name, aware}, r)
	}
	return g, nil
}

// addCluster records one fleet run as cell c.
func (g *Grid) addCluster(c Cell, r *cluster.ClusterResults) {
	g.Mean[c] = r.Latency.Mean / 1e3
	g.addAux("cluster p99 (µs)", c, float64(r.Latency.P99)/1e3)
	g.addAux("read p99 (µs)", c, float64(r.ReadLatency.P99)/1e3)
	g.addAux("worst tenant p99 (µs)", c, float64(r.WorstTenantP99())/1e3)
	g.addAux("worst tenant read p99 (µs)", c, float64(r.WorstTenantReadP99())/1e3)
	g.addAux("redirects", c, float64(r.Redirects))
	g.addAux("shed", c, float64(r.Shed))
	g.addAux("rejected", c, float64(r.Rejected))
	g.addAux("wov (ms)", c, float64(r.WOV)/1e6)
}
