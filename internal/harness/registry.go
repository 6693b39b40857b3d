package harness

// Experiment is one entry of the experiment registry: everything a command
// needs to list, validate, run and render it.
type Experiment struct {
	Name string
	// Aliases resolve to the same runs (fig7b and fig7 for fig7a).
	Aliases []string
	Blurb   string
	// Base is the variant a grid's report normalizes to ("" for none).
	Base string
	// Run executes the experiment: text experiments return their report,
	// grid experiments their grid (render it with Grid.Render(Base)).
	Run func(Options) (string, *Grid, error)
}

// Experiments is the registry, in the order "all" runs it.
var Experiments = []Experiment{
	{Name: "table1", Blurb: "synthetic workload generator check against the paper's Table I", Run: text(Table1)},
	{Name: "fig1", Blurb: "performance-variability timeline per GC scheme", Run: text(Fig1)},
	{Name: "fig2", Blurb: "GC duty cycle and episode statistics", Run: text(Fig2)},
	{Name: "fig7a", Aliases: []string{"fig7b", "fig7"}, Blurb: "mean response time per scheme (fig7b/fig7 alias: GC counts)", Base: "LGC", Run: grid(Fig7)},
	{Name: "fig8", Blurb: "array-size sweep", Base: "5 SSDs", Run: grid(Fig8)},
	{Name: "fig9", Blurb: "stripe-unit sweep", Base: "64KB", Run: grid(Fig9)},
	{Name: "fig10", Blurb: "staging configuration comparison (reserved vs dedicated)", Base: "Reserved", Run: grid(Fig10)},
	{Name: "fig11", Blurb: "response time and rebuild duration during reconstruction", Run: grid(Fig11)},
	{Name: "raid6", Blurb: "RAID6 extension of the main comparison", Base: "LGC", Run: grid(RAID6)},
	{Name: "endurance", Blurb: "per-scheme flash wear (erases, write amplification)", Run: text(Endurance)},
	{Name: "faults", Blurb: "reliability grid: failures, rebuilds, window of vulnerability", Run: grid(Faults)},
	{Name: "scrub", Blurb: "self-healing grid: patrol scrub and hedged reads vs seeded defects", Run: grid(Scrub)},
	{Name: "failslow", Blurb: "fail-slow grid: health quarantine, retries, hedged reads vs a slow member", Base: "none", Run: grid(FailSlow)},
	{Name: "cluster", Blurb: "fleet grid: 8 arrays × 16 tenants, hash-only vs GC/rebuild-aware routing", Base: "hash-only", Run: grid(Cluster)},
	{Name: "chaos", Blurb: "failure-domain grid: whole-array crashes and chaos, unreplicated vs replicated writes", Base: "no-repl", Run: grid(Chaos)},
	{Name: "crashconsist", Blurb: "crash-consistency grid: power loss mid-write, intent journal vs full-scrub remount", Run: grid(CrashConsist)},
}

// LookupExperiment finds a registry entry by name or alias.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
		for _, a := range e.Aliases {
			if a == name {
				return e, true
			}
		}
	}
	return Experiment{}, false
}

func text(f func(Options) (string, error)) func(Options) (string, *Grid, error) {
	return func(o Options) (string, *Grid, error) {
		s, err := f(o)
		return s, nil, err
	}
}

func grid(f func(Options) (*Grid, error)) func(Options) (string, *Grid, error) {
	return func(o Options) (string, *Grid, error) {
		g, err := f(o)
		return "", g, err
	}
}
