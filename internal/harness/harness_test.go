package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"gcsteering"
)

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.maxRequests() != 8000 {
		t.Fatalf("maxRequests = %d", o.maxRequests())
	}
	if o.workers() < 1 {
		t.Fatalf("workers = %d", o.workers())
	}
	if o.repeats() != 1 {
		t.Fatalf("repeats = %d", o.repeats())
	}
	o = Options{MaxRequests: 42, Workers: 3, Repeats: 2}
	if o.maxRequests() != 42 || o.workers() != 3 || o.repeats() != 2 {
		t.Fatal("explicit options ignored")
	}
}

func TestBaseConfigValid(t *testing.T) {
	if err := BaseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	o := Options{Seed: 5}
	if got := o.base().Seed; got != BaseConfig().Seed+5 {
		t.Fatalf("seed offset not applied: %d", got)
	}
	o.Base = func() gcsteering.Config {
		c := BaseConfig()
		c.Disks = 7
		return c
	}
	if o.base().Disks != 7 {
		t.Fatal("Base override ignored")
	}
}

func TestGridNormalizationAndRender(t *testing.T) {
	g := newGrid("t", []string{"w1", "w2"}, []string{"A", "B"})
	g.Mean[Cell{"w1", "A"}] = 10
	g.Mean[Cell{"w1", "B"}] = 5
	g.Mean[Cell{"w2", "A"}] = 20
	g.Mean[Cell{"w2", "B"}] = 40
	g.addAux("x", Cell{"w1", "A"}, 1)

	norm := g.Normalized("A")
	if norm[Cell{"w1", "B"}] != 0.5 || norm[Cell{"w2", "B"}] != 2 {
		t.Fatalf("normalized: %+v", norm)
	}
	gm := g.GeoMeanNormalized("A")
	if gm["A"] != 1 {
		t.Fatalf("geomean of base = %v", gm["A"])
	}
	if got := gm["B"]; got < 0.99 || got > 1.01 { // sqrt(0.5*2) == 1
		t.Fatalf("geomean B = %v", got)
	}
	out := g.Render("A")
	for _, want := range []string{"== t ==", "normalized to A", "w1", "B", "geometric mean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunCellsParallelAndErrors(t *testing.T) {
	n := 20
	results := make([]int, 0, n)
	var jobs []cellJob
	for i := 0; i < n; i++ {
		jobs = append(jobs, cellJob{
			cell: Cell{Workload: "w", Variant: "v"},
			run:  func() (any, error) { return i, nil },
			post: func(_ Cell, p any) { results = append(results, p.(int)) },
		})
	}
	if err := runCells(jobs, 4); err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("posted %d results", len(results))
	}
}

func TestRunCellsPropagatesError(t *testing.T) {
	jobs := []cellJob{{
		cell: Cell{"w", "v"},
		run:  func() (any, error) { return nil, errBoom{} },
		post: func(Cell, any) { t.Fatal("post called on error") },
	}}
	if err := runCells(jobs, 2); err == nil {
		t.Fatal("error swallowed")
	}
}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestAvgResultsAveraging(t *testing.T) {
	a := &AvgResults{}
	r1 := &gcsteering.Results{}
	r1.Latency.Mean = 100
	r1.GCEpisodes = 10
	r2 := &gcsteering.Results{}
	r2.Latency.Mean = 300
	r2.GCEpisodes = 20
	a.add(r1)
	a.add(r2)
	if a.N != 2 || a.MeanNs != 200 || a.GCEpisodes != 15 {
		t.Fatalf("avg: %+v", a)
	}
	if a.Last != r2 {
		t.Fatal("Last not tracked")
	}
}

// tinyOptions shrinks everything so experiment tests run in seconds.
func tinyOptions() Options {
	return Options{
		MaxRequests: 1200,
		Workers:     4,
		Base: func() gcsteering.Config {
			cfg := BaseConfig()
			cfg.Flash.Blocks = 128
			cfg.Flash.PagesPerBlock = 64
			cfg.Flash.OverProvision = 0.2
			cfg.GCLowWater = 4
			cfg.GCHighWater = 10
			return cfg
		},
	}
}

func TestTable1RunsAndMatchesTargets(t *testing.T) {
	out, err := Table1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"HPC_W", "Fin1", "prxy_0", "wdev_0"} {
		if !strings.Contains(out, w) {
			t.Fatalf("Table1 missing %s:\n%s", w, out)
		}
	}
}

func TestFig2Runs(t *testing.T) {
	out, err := Fig2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reads→RI") || !strings.Contains(out, "average:") {
		t.Fatalf("Fig2 output malformed:\n%s", out)
	}
}

func TestFig7ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	o := tinyOptions()
	o.MaxRequests = 2500
	g, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) != 8 || len(g.Variants) != 3 {
		t.Fatalf("grid shape %dx%d", len(g.Workloads), len(g.Variants))
	}
	for _, w := range g.Workloads {
		for _, v := range g.Variants {
			if g.Mean[Cell{w, v}] <= 0 {
				t.Fatalf("missing cell %s/%s", w, v)
			}
		}
	}
	// Headline shape: GC-Steering's mean response time is below LGC's on
	// geometric mean across the eight workloads.
	gm := g.GeoMeanNormalized("LGC")
	if gm["GC-Steering"] >= 1 {
		t.Fatalf("GC-Steering geomean %.3f, want < 1 (beats LGC)", gm["GC-Steering"])
	}
	// Fig 7b shape: GGC performs far more GC episodes; steering roughly
	// matches LGC (it never changes when GC happens).
	counts := g.Aux["GC count (episodes)"]
	var lgc, ggc, steer float64
	for _, w := range g.Workloads {
		lgc += counts[Cell{w, "LGC"}]
		ggc += counts[Cell{w, "GGC"}]
		steer += counts[Cell{w, "GC-Steering"}]
	}
	if ggc < 1.5*lgc {
		t.Fatalf("GGC episodes %.0f vs LGC %.0f; expected a large inflation", ggc, lgc)
	}
	if steer > 1.5*lgc {
		t.Fatalf("steering episodes %.0f vs LGC %.0f; steering must not change GC counts much", steer, lgc)
	}
}

func TestFig8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := Fig8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Variants) != 2 {
		t.Fatal("variants")
	}
	for _, w := range g.Workloads {
		for _, v := range g.Variants {
			if g.Mean[Cell{w, v}] <= 0 {
				t.Fatalf("missing cell %s/%s", w, v)
			}
		}
	}
}

func TestFig9Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := Fig9(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Variants) != 3 {
		t.Fatal("variants")
	}
}

func TestFig10Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := Fig10(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"Reserved", "Dedicated"} {
		if g.Mean[Cell{"Fin1", v}] <= 0 {
			t.Fatalf("missing %s", v)
		}
	}
}

func TestFig11Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	o := tinyOptions()
	g, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	norm := g.Aux["normalized to normal state"]
	if len(norm) == 0 {
		t.Fatal("no normalized cells")
	}
	dur := g.Aux["rebuild duration (s)"]
	for c, v := range dur {
		if v <= 0 {
			t.Fatalf("cell %v: rebuild did not complete", c)
		}
	}
}

func TestFaultsGridRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := Faults(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Variants) != 3 {
		t.Fatalf("variants = %v", g.Variants)
	}
	wov := g.Aux["window of vulnerability (s)"]
	deg := g.Aux["degraded p99 (µs)"]
	for _, w := range g.Workloads {
		for _, v := range g.Variants {
			c := Cell{w, v}
			if wov[c] <= 0 {
				t.Fatalf("cell %v: no vulnerability window measured", c)
			}
			if deg[c] <= 0 {
				t.Fatalf("cell %v: no degraded p99 measured", c)
			}
		}
	}
	// The headline reliability claim: GC-Steering's staging absorbs user
	// I/O off the survivors during reconstruction, so its vulnerability
	// window is the shortest on aggregate.
	var lgc, ggc, steer float64
	for _, w := range g.Workloads {
		lgc += wov[Cell{w, "LGC"}]
		ggc += wov[Cell{w, "GGC"}]
		steer += wov[Cell{w, "GC-Steering"}]
	}
	if steer >= lgc || steer >= ggc {
		t.Fatalf("GC-Steering WOV %.2fs not shortest (LGC %.2fs, GGC %.2fs)", steer, lgc, ggc)
	}
}

func TestGridMarshalJSON(t *testing.T) {
	g := newGrid("t", []string{"w1"}, []string{"A", "B"})
	g.Mean[Cell{"w1", "A"}] = 10
	g.Mean[Cell{"w1", "B"}] = 5
	g.addAux("x", Cell{"w1", "A"}, 1.5)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Title     string                                   `json:"title"`
		Workloads []string                                 `json:"workloads"`
		Variants  []string                                 `json:"variants"`
		Metrics   map[string]map[string]map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Title != "t" || len(back.Workloads) != 1 || len(back.Variants) != 2 {
		t.Fatalf("round trip lost shape: %+v", back)
	}
	if back.Metrics["mean response time (µs)"]["w1"]["A"] != 10 {
		t.Fatalf("primary metric lost: %+v", back.Metrics)
	}
	if back.Metrics["x"]["w1"]["A"] != 1.5 {
		t.Fatalf("aux metric lost: %+v", back.Metrics)
	}
	if _, ok := back.Metrics["x"]["w1"]["B"]; ok {
		t.Fatal("unset cell serialized")
	}
}

func TestRAID6Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	g, err := RAID6(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if g.Mean[Cell{"Fin1", "GC-Steering"}] <= 0 {
		t.Fatal("RAID6 grid incomplete")
	}
}

func TestScrubGridSelfHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation grid")
	}
	o := tinyOptions()
	o.MaxRequests = 2500
	g, err := Scrub(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Workloads) != 3 || len(g.Variants) != 4 {
		t.Fatalf("grid shape %dx%d", len(g.Workloads), len(g.Variants))
	}
	for _, w := range g.Workloads {
		for _, v := range g.Variants {
			if g.Mean[Cell{w, v}] <= 0 {
				t.Fatalf("missing cell %s/%s", w, v)
			}
		}
	}
	// The headline reliability claim: with the identical seeded defect plan,
	// a patrol scrub pass before the failure strictly reduces the UREs the
	// rebuild then encounters on the survivors.
	ures := g.Aux["rebuild UREs"]
	fixed := g.Aux["scrub pages fixed"]
	for _, w := range g.Workloads {
		if ures[Cell{w, "baseline"}] <= 0 {
			t.Fatalf("%s: baseline rebuild saw no UREs; nothing to reduce", w)
		}
		if ures[Cell{w, "scrub"}] >= ures[Cell{w, "baseline"}] {
			t.Fatalf("%s: scrub UREs %.0f not below baseline %.0f",
				w, ures[Cell{w, "scrub"}], ures[Cell{w, "baseline"}])
		}
		if fixed[Cell{w, "scrub"}] <= 0 {
			t.Fatalf("%s: scrub repaired no pages", w)
		}
	}
	// The performance claim: hedged reads cut the GC-phase read tail on at
	// least one workload.
	p99 := g.Aux["gc-phase read p99 (µs)"]
	hedged := g.Aux["hedged reads"]
	improved := 0
	for _, w := range g.Workloads {
		if hedged[Cell{w, "hedge"}] <= 0 {
			t.Fatalf("%s: no reads hedged", w)
		}
		if p99[Cell{w, "hedge"}] < p99[Cell{w, "baseline"}] {
			improved++
		}
	}
	if improved == 0 {
		t.Fatalf("hedging never improved gc-phase read p99: %v", p99)
	}
}

func TestLookupExperimentResolvesAliases(t *testing.T) {
	for _, name := range []string{"fig7a", "fig7b", "fig7"} {
		if e, ok := LookupExperiment(name); !ok || e.Name != "fig7a" {
			t.Errorf("LookupExperiment(%q) = %q, %v; want fig7a", name, e.Name, ok)
		}
	}
	if _, ok := LookupExperiment("fig99"); ok {
		t.Error("unknown experiment resolved")
	}
}
