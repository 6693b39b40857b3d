// Command gcsbench regenerates the tables and figures of the paper's
// evaluation section from the simulator.
//
// Usage:
//
//	gcsbench -experiment fig7a [-requests 20000] [-workers 8] [-seed 1]
//
// Experiments: table1, fig1 (variability timeline), fig2, fig7a, fig7b (an
// alias of fig7a's run that highlights GC counts), fig8, fig9, fig10,
// fig11, raid6 (the future-work extension), endurance, faults (the
// reliability grid under injected failures), scrub (the self-healing grid:
// patrol scrub and GC-hedged reads under seeded latent errors), failslow
// (the fail-slow tolerance grid: health quarantine and hedged reads under
// a sustained member slowdown with transient read errors), cluster (the
// fleet grid: many arrays and tenants behind consistent-hash placement,
// hash-only vs GC/rebuild-aware routing), chaos (the failure-domain grid:
// whole-array crashes under a seeded chaos plan, unreplicated vs
// replicated writes), crashconsist (the crash-consistency grid: power loss
// mid-write with torn pages, intent journal vs full-scrub remount), all.
// Run with -list-experiments to print the registry (harness.Experiments).
//
// -json <path> additionally writes the machine-readable results of the run
// (every grid's full metric tables) to the given file.
//
// -trace <path> streams the structured simulation event log (JSONL, one
// event per line) of the tracing-aware experiments — currently fig1, whose
// sequential per-scheme runs are separated by "run-start" events. -timeseries
// <path> writes fig1's windowed latency/gauge time series as CSV, one
// labelled block per scheme. Parallel grid experiments ignore both flags.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gcsteering"
	"gcsteering/internal/harness"
)

// experimentOut is one experiment's result in the -json document: grid
// experiments carry their metric tables, text experiments their rendering.
type experimentOut struct {
	Name string        `json:"name"`
	Text string        `json:"text,omitempty"`
	Grid *harness.Grid `json:"grid,omitempty"`
}

// jsonSchemaVersion is bumped whenever the shape of jsonDoc changes, so
// downstream consumers can gate their parsers on it.
const jsonSchemaVersion = 1

// jsonDoc is the top-level -json document.
type jsonDoc struct {
	Schema      int             `json:"schema"`
	Requests    int             `json:"requests"`
	Seed        int64           `json:"seed"`
	Repeats     int             `json:"repeats"`
	Experiments []experimentOut `json:"experiments"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses argv, executes the selected
// experiments writing reports to stdout and diagnostics to stderr, and
// returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	var names []string // registry names in run order
	var accepted []string
	for _, e := range harness.Experiments {
		names = append(names, e.Name)
		accepted = append(append(accepted, e.Name), e.Aliases...)
	}
	fs := flag.NewFlagSet("gcsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "which experiment to run: "+strings.Join(accepted, "|")+"|all")
		listExps   = fs.Bool("list-experiments", false, "print the experiment registry and exit")
		requests   = fs.Int("requests", 8000, "requests per workload (scaled-down replay of the Table I traces)")
		workers    = fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		seed       = fs.Int64("seed", 0, "seed offset for replication")
		repeats    = fs.Int("repeats", 1, "average each cell over this many seeds")
		jsonPath   = fs.String("json", "", "also write results as JSON to this file")
		tracePath  = fs.String("trace", "", "write the simulation event log (JSONL) of tracing-aware experiments (fig1) to this file")
		seriesPath = fs.String("timeseries", "", "write the windowed latency time series (CSV) of tracing-aware experiments (fig1) to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "gcsbench: "+format+"\n", args...)
		return 1
	}
	if *listExps {
		// Sorted, so the listing is stable as the registry grows (the run
		// order of -experiment all stays curated in the registry).
		sorted := append([]harness.Experiment(nil), harness.Experiments...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		for _, e := range sorted {
			fmt.Fprintf(stdout, "%-10s %s\n", e.Name, e.Blurb)
		}
		fmt.Fprintf(stdout, "%-10s %s\n", "all", "run every experiment above in sequence")
		return 0
	}

	// Resolve the experiment list before touching any output file, so a
	// typo'd -experiment exits cleanly without side effects.
	if n := strings.ToLower(*experiment); n != "all" {
		if _, ok := harness.LookupExperiment(n); !ok {
			return fail("unknown experiment %q (have %s, all; see -list-experiments)",
				n, strings.Join(names, ", "))
		}
		names = []string{n}
	}

	o := harness.Options{MaxRequests: *requests, Workers: *workers, Seed: *seed, Repeats: *repeats}
	doc := jsonDoc{Schema: jsonSchemaVersion, Requests: *requests, Seed: *seed, Repeats: *repeats}

	var traceFile *os.File
	var tracer *gcsteering.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fail("create %s: %v", *tracePath, err)
		}
		traceFile = f
		tracer = gcsteering.NewTracer(f)
		o.Trace = tracer
	}
	var seriesFile *os.File
	var seriesBuf *bufio.Writer
	if *seriesPath != "" {
		f, err := os.Create(*seriesPath)
		if err != nil {
			return fail("create %s: %v", *seriesPath, err)
		}
		seriesFile = f
		seriesBuf = bufio.NewWriter(f)
		o.SeriesOut = seriesBuf
	}

	for _, n := range names {
		out, err := runOne(n, o, stdout)
		if err != nil {
			return fail("%v", err)
		}
		doc.Experiments = append(doc.Experiments, out)
	}

	// Flush is nil-safe (the tracer's nil-receiver contract); only the
	// file handle needs a presence check.
	if err := tracer.Flush(); err != nil {
		return fail("write trace %s: %v", *tracePath, err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return fail("close %s: %v", *tracePath, err)
		}
	}
	if seriesBuf != nil {
		if err := seriesBuf.Flush(); err != nil {
			return fail("write timeseries %s: %v", *seriesPath, err)
		}
		if err := seriesFile.Close(); err != nil {
			return fail("close %s: %v", *seriesPath, err)
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail("encode json: %v", err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return fail("write %s: %v", *jsonPath, err)
		}
	}
	return 0
}

// runOne executes one experiment, renders its report to stdout, and returns
// its -json entry under the requested name (an alias stays an alias).
func runOne(name string, o harness.Options, stdout io.Writer) (experimentOut, error) {
	out := experimentOut{Name: name}
	e, _ := harness.LookupExperiment(name)
	text, g, err := e.Run(o)
	if err != nil {
		return out, err
	}
	if g != nil {
		text = g.Render(e.Base)
		out.Grid = g
	} else {
		out.Text = text
	}
	fmt.Fprint(stdout, text)
	fmt.Fprintln(stdout)
	return out, nil
}
