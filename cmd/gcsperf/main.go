// Command gcsperf is the repository's benchmark. It measures the simulator
// (host time, allocations and memory per simulated request, and wall time
// per experiment grid) and the modeled array (simulated response times and
// the GC-Steering gain) over five workloads, end to end and layer by layer,
// and checks the outputs while it measures.
//
// Usage, from cmd/gcsperf:
//
//	go run . [-workloads a,b] [-seed N] [-seconds S] [-trace 0|1]
//	         [-json out.json] [-trace-dir DIR] [-quick]
//	go run . -compare base.json head.json
//
// From the repository root, sh cmd/gcsperf/run.sh takes the same flags.
// Every metric is printed by name with its unit; after each workload one
// JSON line summarizes it:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// -trace 0 measures the end-to-end metrics only, -trace 1 only the
// per-layer metrics (the traced run); without -trace both. The command exits
// 1 when any output check fails. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses argv, runs the selected
// workloads writing reports to stdout and diagnostics to stderr, and
// returns the process exit code.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var selected string
	fs.StringVar(&selected, "workloads", "", "comma-separated workloads to run (default all: "+workloadNames()+")")
	fs.StringVar(&selected, "workload", "", "alias of -workloads")
	var (
		seed     = fs.Int64("seed", 0, "offset added to Config.Seed and harness.Options.Seed")
		seconds  = fs.Float64("seconds", 5, "measuring time of the timed reps of each workload")
		mode     = fs.Int("trace", modeBoth, "0: end-to-end metrics only; 1: per-layer metrics only (the traced run); -1: both")
		jsonPath = fs.String("json", "", "also write the full results document (medians, quartiles, environment) to this file")
		traceDir = fs.String("trace-dir", "", "write the layer-call spans and the CPU profiles to this directory")
		quick    = fs.Bool("quick", false, "1/20-scale smoke run: two timed reps, no CPU profile")
		compare  = fs.String("compare", "", "compare the -json document named by the positional argument against this base document")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "gcsperf: "+format+"\n", args...)
		return 1
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			return fail("usage: gcsperf -compare base.json head.json")
		}
		return runCompare(*compare, fs.Arg(0), stdout, stderr)
	}
	if fs.NArg() != 0 {
		return fail("unexpected arguments %q", fs.Args())
	}
	if *mode < modeBoth || *mode > modeLayers {
		return fail("-trace %d: want 0, 1 or -1", *mode)
	}
	if *seconds <= 0 || math.IsNaN(*seconds) || math.IsInf(*seconds, 0) {
		return fail("-seconds %v: want a positive number", *seconds)
	}
	defs, err := selectWorkloads(selected)
	if err != nil {
		return fail("%v", err)
	}

	m := &measurer{seed: *seed, seconds: *seconds, quick: *quick, mode: *mode,
		nproc: runtime.GOMAXPROCS(0), spans: newSpanLog(), profiles: map[string][]byte{}}
	doc := document{Schema: docSchema, Seed: *seed, Seconds: *seconds, Quick: *quick, Mode: *mode,
		Env: environment(*jsonPath != "")}
	fmt.Fprintf(stdout, "gcsperf: %s, GOMAXPROCS=%d, seed %d\n", doc.Env.GoVersion, doc.Env.GOMAXPROCS, *seed)
	exit := 0
	for _, w := range defs {
		r := m.measure(w)
		wd := report(r, m, stdout)
		doc.Workloads = append(doc.Workloads, wd)
		line, err := json.Marshal(contractLine(wd, m.mode))
		if err != nil {
			return fail("encode result line: %v", err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !wd.Correct {
			exit = 1
		}
	}

	if *traceDir != "" {
		if err := writeTraceDir(*traceDir, m, defs); err != nil {
			return fail("write %s: %v", *traceDir, err)
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail("encode json: %v", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return fail("write %s: %v", *jsonPath, err)
		}
	}
	if exit != 0 {
		fmt.Fprintln(stderr, "gcsperf: output checks failed")
	}
	return exit
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ",")
}

// selectWorkloads resolves a comma-separated list (empty = all) in
// benchmark order.
func selectWorkloads(list string) ([]*workloadDef, error) {
	var out []*workloadDef
	want := map[string]bool{}
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	all := len(want) == 0
	for i := range workloads {
		if all || want[workloads[i].name] {
			out = append(out, &workloads[i])
			delete(want, workloads[i].name)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", strings.Join(sortedStrings(unknown), ","), workloadNames())
	}
	return out, nil
}

// docSchema versions the -json document.
const docSchema = 1

// document is the -json output.
type document struct {
	Schema    int           `json:"schema"`
	Seed      int64         `json:"seed"`
	Seconds   float64       `json:"seconds"`
	Quick     bool          `json:"quick"`
	Mode      int           `json:"trace"`
	Env       env           `json:"env"`
	Workloads []workloadDoc `json:"workloads"`
}

// env records where the numbers were measured.
type env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// environment describes the host. The CPU model is read from /proc only
// when a document will record it.
func environment(withCPU bool) env {
	e := env{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if withCPU {
		if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
			for _, l := range strings.Split(string(data), "\n") {
				if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
					e.CPUModel = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	return e
}

// workloadDoc is one workload in the -json document.
type workloadDoc struct {
	Name      string      `json:"name"`
	Why       string      `json:"why"`
	Correct   bool        `json:"correct"`
	Attempted int64       `json:"attempted"`
	Failed    int64       `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Noisy     bool        `json:"noisy"`
	SpinMs    [2]float64  `json:"spin_ms"`
	Metrics   []metricDoc `json:"metrics"`
}

// metricDoc is one metric's distribution over a run's reps.
type metricDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// noiseLimit is the spin-loop drift that flags a workload noisy.
const noiseLimit = 0.10

// report prints a workload's metrics and checks and returns its document
// entry. Per-layer metrics a workload does not exercise read 0 (n=0).
func report(r *wlRun, m *measurer, w io.Writer) workloadDoc {
	d := workloadDoc{Name: r.def.name, Why: r.def.why, Attempted: r.attempted, Failed: r.failed,
		SpinMs: [2]float64{float64(r.spinBefore.Nanoseconds()) / 1e6, float64(r.spinAfter.Nanoseconds()) / 1e6}}
	fmt.Fprintf(w, "\n== %s: %s\n", r.def.name, r.def.why)
	for _, def := range metricTable {
		if !wanted(def, m.mode) {
			continue
		}
		xs, ok := r.out[def.Name]
		if !ok && !def.Layer {
			r.fail("metric %s was not measured", def.Name)
		}
		s := summarize(xs)
		for _, v := range []float64{s.Median, s.P25, s.P75} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				r.fail("metric %s is not finite", def.Name)
				s = summary{N: s.N}
				break
			}
		}
		d.Metrics = append(d.Metrics, metricDoc{Name: def.Name, Unit: def.Unit, Better: def.Better,
			Bound: def.Bound, Median: s.Median, P25: s.P25, P75: s.P75, N: s.N})
		fmt.Fprintf(w, "  %-38s %16.6g %-6s p25 %-12.6g p75 %-12.6g n=%d\n",
			def.Name, s.Median, def.Unit, s.P25, s.P75, s.N)
	}
	drift := math.Abs(d.SpinMs[1]-d.SpinMs[0]) / math.Min(d.SpinMs[0], d.SpinMs[1])
	d.Noisy = drift > noiseLimit
	fmt.Fprintf(w, "  noise guard: spin %.1f ms before, %.1f ms after", d.SpinMs[0], d.SpinMs[1])
	if d.Noisy {
		fmt.Fprintf(w, " (noisy: %.0f%% drift)", 100*drift)
	}
	fmt.Fprintln(w)
	d.Correct = r.correct()
	if d.Correct {
		fmt.Fprintf(w, "  checks: ok (%d requests attempted, %d failed)\n", r.attempted, r.failed)
	} else {
		d.Failures = r.failures
		d.Failed = d.Attempted
		for _, f := range r.failures {
			fmt.Fprintf(w, "  CHECK FAILED: %s\n", f)
		}
	}
	return d
}

// wanted reports whether a metric belongs to the run's mode.
func wanted(def metricDef, mode int) bool {
	switch mode {
	case modeE2E:
		return !def.Layer
	case modeLayers:
		return def.Layer
	default:
		return true
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line summary printed after each workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func contractLine(d workloadDoc, mode int) resultLine {
	l := resultLine{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed,
		Metrics: map[string]metricValue{}}
	if l.Attempted < 1 {
		l.Attempted = 1
		l.Failed = 1
	}
	for _, md := range d.Metrics {
		l.Metrics[md.Name] = metricValue{Value: md.Median, Unit: md.Unit}
	}
	return l
}

// writeTraceDir writes spans.jsonl and one CPU profile per profiled
// workload (read it with `go tool pprof -top <file>`).
func writeTraceDir(dir string, m *measurer, defs []*workloadDef) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := m.spans.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	for _, w := range defs {
		if p, ok := m.profiles[w.name]; ok {
			if err := os.WriteFile(filepath.Join(dir, w.name+".cpu.pprof"), p, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
