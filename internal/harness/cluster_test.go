package harness

import (
	"reflect"
	"strings"
	"testing"

	"gcsteering"
	"gcsteering/internal/cluster"
)

func TestClusterGridShapeAndHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet grid")
	}
	g, err := Cluster(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) != 3 || len(g.Variants) != 2 {
		t.Fatalf("grid shape %dx%d", len(g.Workloads), len(g.Variants))
	}
	for _, w := range g.Workloads {
		for _, v := range g.Variants {
			if g.Mean[Cell{w, v}] <= 0 {
				t.Fatalf("missing cell %s/%s", w, v)
			}
		}
	}
	// The routing decision is the only difference between the variants, so
	// the admission tier must shed identically.
	shed := g.Aux["shed"]
	for _, w := range g.Workloads {
		if shed[Cell{w, "hash-only"}] != shed[Cell{w, "gc-aware"}] {
			t.Fatalf("%s: shed differs across policies (%v vs %v) — admission is not policy-independent",
				w, shed[Cell{w, "hash-only"}], shed[Cell{w, "gc-aware"}])
		}
	}
	// GC-aware routing actually routes: redirects on every scenario, none
	// on the hash baseline.
	redir := g.Aux["redirects"]
	for _, w := range g.Workloads {
		if redir[Cell{w, "hash-only"}] != 0 {
			t.Fatalf("%s: hash-only redirected %.0f requests", w, redir[Cell{w, "hash-only"}])
		}
		if redir[Cell{w, "gc-aware"}] == 0 {
			t.Fatalf("%s: gc-aware diverted nothing", w)
		}
	}
	// The headline claim (acceptance criterion): GC/rebuild-aware routing
	// reduces tenant read tail latency vs the hash-only baseline — never
	// worse on any scenario, strictly better on at least one.
	p99 := g.Aux["worst tenant read p99 (µs)"]
	improved := 0
	for _, w := range g.Workloads {
		hash, aware := p99[Cell{w, "hash-only"}], p99[Cell{w, "gc-aware"}]
		if aware > hash {
			t.Fatalf("%s: gc-aware worst tenant read p99 %.1fµs above hash-only %.1fµs", w, aware, hash)
		}
		if aware < hash {
			improved++
		}
	}
	if improved == 0 {
		t.Fatalf("gc-aware never improved worst tenant read p99: %v", p99)
	}
	// And the mean moves too, on geometric mean across scenarios.
	if gm := g.GeoMeanNormalized("hash-only")["gc-aware"]; gm >= 1 {
		t.Fatalf("gc-aware geomean %.3f, want < 1 (beats hash-only)", gm)
	}
	out := g.Render("hash-only")
	for _, want := range []string{"Fleet simulation", "redirects", "wov (ms)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestClusterConfigUsesOptions(t *testing.T) {
	o := tinyOptions()
	o.Seed = 7
	sc := clusterScenarios()[0]
	c := clusterConfig(o, sc, cluster.PolicySteering)
	if c.Arrays != clusterArrays || len(c.Tenants) != clusterTenants {
		t.Fatalf("fleet shape %d arrays × %d tenants", c.Arrays, len(c.Tenants))
	}
	if c.Seed != 7 {
		t.Fatalf("seed offset not applied: %d", c.Seed)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	per := o.maxRequests() / clusterTenants
	for _, tn := range c.Tenants {
		if tn.Requests != per {
			t.Fatalf("tenant %s requests %d, want %d", tn.Name, tn.Requests, per)
		}
	}
}

// TestClusterBaselineIsHashRun pins what lets Cluster fill both of a
// scenario's cells from one run: under PolicySteering, Run's profile pass,
// returned as Baseline, is the PolicyHash run of the same Config — with 1
// or 2 shard workers, with or without a warm-up memo shared by both runs.
func TestClusterBaselineIsHashRun(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation")
	}
	for _, sc := range clusterScenarios() {
		for _, sr := range []struct {
			workers int
			memo    bool
		}{{1, false}, {2, false}, {1, true}, {2, true}} {
			var memo *gcsteering.Warmup
			if sr.memo {
				memo = new(gcsteering.Warmup)
			}
			run := func(p cluster.Policy) *cluster.ClusterResults {
				c := clusterConfig(tinyOptions(), sc, p)
				c.Workers = sr.workers
				c.Warmup = memo
				r, err := cluster.Run(c)
				if err != nil {
					t.Fatalf("%s/%s %+v: %v", sc.name, p, sr, err)
				}
				return r
			}
			aware, hash := run(cluster.PolicySteering), run(cluster.PolicyHash)
			if hash.Baseline != nil {
				t.Fatalf("%s %+v: hash-only run has a Baseline", sc.name, sr)
			}
			base := aware.Baseline
			if base == nil {
				t.Fatalf("%s %+v: gc-aware run has no Baseline", sc.name, sr)
			}
			if base.Baseline != nil {
				t.Fatalf("%s %+v: Baseline has its own Baseline", sc.name, sr)
			}
			if !reflect.DeepEqual(base, hash) {
				t.Errorf("%s %+v: Baseline differs from the hash-only run:\nBaseline: %s\nhash-only: %s",
					sc.name, sr, base, hash)
			}
		}
	}
}
