// Package harness defines and runs the paper's experiments: one function
// per table/figure of the evaluation section, a parallel grid runner that
// fans independent simulations out over a worker pool, and text renderers
// for the result tables.
//
// The harness is the only component that runs concurrently: each cell of
// an experiment grid is a self-contained deterministic simulation, so the
// grid maps perfectly onto a fan-out/fan-in worker pool.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"

	"gcsteering"
)

// Options tunes an experiment run.
type Options struct {
	// MaxRequests caps the trace length per cell (0 = the harness default
	// of 8000; the paper's full request counts are impractical for a quick
	// regeneration — pass larger values for higher fidelity).
	MaxRequests int
	// Workers bounds the parallel simulations (0 = GOMAXPROCS).
	Workers int
	// Seed offsets all cell seeds for replication studies.
	Seed int64
	// Repeats averages each cell over this many seeds (0 = 1) in the fig7a,
	// fig8, fig9, fig10, ablation and raid6 grids only. Every other
	// experiment — faults, scrub, failslow, crashconsist, fig11, cluster,
	// chaos and the text reports — runs once and ignores it. The paper's normalized bars
	// are single measurements; averaging tames the simulator's run-to-run
	// variance.
	Repeats int
	// Base overrides the per-cell base configuration (nil = BaseConfig).
	Base func() gcsteering.Config
	// Trace, when non-nil, receives the structured event stream of the
	// sequential tracing-aware experiments (currently Fig1, which separates
	// its per-scheme runs with run-start events). Parallel grid experiments
	// ignore it: one tracer cannot be shared between concurrently running
	// engines. The caller flushes it.
	Trace *gcsteering.Tracer
	// SeriesOut, when non-nil, receives the windowed time series of
	// tracing-aware experiments as CSV (Fig1 writes one labelled block per
	// scheme and enables per-window quantiles for those runs).
	SeriesOut io.Writer
}

func (o Options) maxRequests() int {
	if o.MaxRequests <= 0 {
		return 8000
	}
	return o.MaxRequests
}

func (o Options) repeats() int {
	if o.Repeats <= 0 {
		return 1
	}
	return o.Repeats
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o Options) base() gcsteering.Config {
	if o.Base != nil {
		cfg := o.Base()
		cfg.Seed += o.Seed
		return cfg
	}
	cfg := BaseConfig()
	cfg.Seed += o.Seed
	return cfg
}

// BaseConfig is the default experiment configuration: the paper's main
// setup (RAID5, 5 SSDs, 64 KB stripe unit) over a device geometry scaled
// for fast simulation.
func BaseConfig() gcsteering.Config {
	// The library defaults carry the calibrated geometry and scheme
	// behaviour; the harness uses them unchanged.
	return gcsteering.DefaultConfig()
}

// Cell addresses one measurement in an experiment grid.
type Cell struct {
	Workload string
	Variant  string
}

// Grid holds an experiment's measurements: workloads × variants, a primary
// metric (mean response time in µs) plus named auxiliary metrics.
type Grid struct {
	Title     string
	Workloads []string
	Variants  []string
	Mean      map[Cell]float64            // mean response time, µs
	Aux       map[string]map[Cell]float64 // e.g. "GC count"
}

func newGrid(title string, workloads, variants []string) *Grid {
	return &Grid{
		Title:     title,
		Workloads: workloads,
		Variants:  variants,
		Mean:      make(map[Cell]float64),
		Aux:       make(map[string]map[Cell]float64),
	}
}

func (g *Grid) addAux(metric string, c Cell, v float64) {
	m := g.Aux[metric]
	if m == nil {
		m = make(map[Cell]float64)
		g.Aux[metric] = m
	}
	m[c] = v
}

// Normalized returns the primary metric normalized per workload to the
// given base variant (the paper's figures normalize to LGC).
func (g *Grid) Normalized(base string) map[Cell]float64 {
	out := make(map[Cell]float64, len(g.Mean))
	for _, w := range g.Workloads {
		b := g.Mean[Cell{w, base}]
		for _, v := range g.Variants {
			c := Cell{w, v}
			if b > 0 {
				out[c] = g.Mean[c] / b
			}
		}
	}
	return out
}

// GeoMeanNormalized returns, per variant, the geometric mean across
// workloads of the metric normalized to base — the "on average X% lower"
// summary statistic the paper quotes.
func (g *Grid) GeoMeanNormalized(base string) map[string]float64 {
	norm := g.Normalized(base)
	out := make(map[string]float64, len(g.Variants))
	for _, v := range g.Variants {
		prod, n := 1.0, 0
		for _, w := range g.Workloads {
			if x := norm[Cell{w, v}]; x > 0 {
				prod *= x
				n++
			}
		}
		if n > 0 {
			out[v] = math.Pow(prod, 1/float64(n))
		}
	}
	return out
}

// Render prints the grid: raw µs, then normalized to base (if non-empty),
// then each auxiliary metric.
func (g *Grid) Render(base string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", g.Title)
	g.renderMetric(&b, "mean response time (µs)", g.Mean, "%.1f")
	if base != "" {
		norm := g.Normalized(base)
		g.renderMetric(&b, fmt.Sprintf("normalized to %s", base), norm, "%.3f")
		gm := g.GeoMeanNormalized(base)
		fmt.Fprintf(&b, "geometric mean vs %s:", base)
		for _, v := range g.Variants {
			fmt.Fprintf(&b, "  %s=%.3f", v, gm[v])
		}
		fmt.Fprintln(&b)
	}
	for _, name := range sortedKeys(g.Aux) {
		g.renderMetric(&b, name, g.Aux[name], "%.1f")
	}
	return b.String()
}

func (g *Grid) renderMetric(b *strings.Builder, name string, data map[Cell]float64, format string) {
	fmt.Fprintf(b, "-- %s --\n", name)
	tw := tabwriter.NewWriter(b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "workload")
	for _, v := range g.Variants {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for _, w := range g.Workloads {
		fmt.Fprintf(tw, "%s", w)
		for _, v := range g.Variants {
			fmt.Fprintf(tw, "\t"+format, data[Cell{w, v}])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// gridJSON is the wire form of a Grid: every metric as a table keyed by
// workload then variant, so consumers need no knowledge of the Cell type.
type gridJSON struct {
	Title     string                                   `json:"title"`
	Workloads []string                                 `json:"workloads"`
	Variants  []string                                 `json:"variants"`
	Metrics   map[string]map[string]map[string]float64 `json:"metrics"`
}

// MarshalJSON implements json.Marshaler: the primary metric appears under
// "mean response time (µs)" alongside the auxiliary metrics.
func (g *Grid) MarshalJSON() ([]byte, error) {
	out := gridJSON{
		Title:     g.Title,
		Workloads: g.Workloads,
		Variants:  g.Variants,
		Metrics:   make(map[string]map[string]map[string]float64, 1+len(g.Aux)),
	}
	add := func(name string, data map[Cell]float64) {
		t := make(map[string]map[string]float64, len(g.Workloads))
		for _, w := range g.Workloads {
			row := make(map[string]float64, len(g.Variants))
			for _, v := range g.Variants {
				if x, ok := data[Cell{w, v}]; ok {
					row[v] = x
				}
			}
			t[w] = row
		}
		out.Metrics[name] = t
	}
	add("mean response time (µs)", g.Mean)
	for name, data := range g.Aux {
		add(name, data)
	}
	return json.Marshal(out)
}

func sortedKeys(m map[string]map[Cell]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cellJob is one simulation of a grid. run executes in a worker goroutine
// and returns an arbitrary payload; post records it into the grid and is
// always invoked from a single goroutine, so grids need no locking.
type cellJob struct {
	cell Cell
	run  func() (any, error)
	post func(c Cell, payload any)
}

// AvgResults accumulates per-seed results of one cell.
type AvgResults struct {
	N          int
	MeanNs     float64 // averaged mean response time (ns)
	P99Ns      float64
	GCEpisodes float64
	Erases     float64
	Redirect   float64
	Last       *gcsteering.Results
}

func (a *AvgResults) add(r *gcsteering.Results) {
	a.N++
	n := float64(a.N)
	a.MeanNs += (r.Latency.Mean - a.MeanNs) / n
	a.P99Ns += (float64(r.Latency.P99) - a.P99Ns) / n
	a.GCEpisodes += (float64(r.GCEpisodes) - a.GCEpisodes) / n
	a.Erases += (float64(r.Erases) - a.Erases) / n
	a.Redirect += (r.RedirectRatio - a.Redirect) / n
	a.Last = r
}

// runCells executes jobs on a worker pool and applies post-hooks in a
// single goroutine so the grid maps need no locking.
func runCells(jobs []cellJob, workers int) error {
	type outcome struct {
		idx int
		res any
		err error
	}
	jobCh := make(chan int)
	outCh := make(chan outcome)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				res, err := jobs[idx].run()
				outCh <- outcome{idx, res, err}
			}
		}()
	}
	go func() {
		for i := range jobs {
			jobCh <- i
		}
		close(jobCh)
		wg.Wait()
		close(outCh)
	}()
	var firstErr error
	for o := range outCh {
		if o.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cell %v: %w", jobs[o.idx].cell, o.err)
			}
			continue
		}
		jobs[o.idx].post(jobs[o.idx].cell, o.res)
	}
	return firstErr
}
