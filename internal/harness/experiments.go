package harness

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"gcsteering"
	"gcsteering/internal/trace"
	"gcsteering/internal/workload"
)

// variant is one column of an experiment grid: its name and the change it
// makes to the cell's Config.
type variant struct {
	name string
	set  func(*gcsteering.Config)
}

// unchanged is the set of a grid's baseline column.
func unchanged(*gcsteering.Config) {}

// lgc and ggc are the baseline scheme columns.
var (
	lgc = variant{"LGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeLGC }}
	ggc = variant{"GGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeGGC }}
)

// steering is a GC-Steering column over the given staging space.
func steering(name string, staging gcsteering.StagingKind) variant {
	return variant{name, func(c *gcsteering.Config) {
		c.Scheme = gcsteering.SchemeSteering
		c.Staging = staging
	}}
}

// schemeVariants are the schemes the figures compare, in the paper's order.
var schemeVariants = []variant{lgc, ggc, steering("GC-Steering", gcsteering.StagingReserved)}

func names(vs []variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.name
	}
	return out
}

// allWorkloads is the paper's Table I order.
func allWorkloads() []string { return workload.Names() }

// fig8Workloads is the five-workload subset the sensitivity figures use.
func fig8Workloads() []string {
	return []string{"HPC_W", "HPC_R", "Fin1", "hm_0", "prxy_0"}
}

// plan fills in the fields of a cell's Config that depend on its trace:
// fault instants, bandwidth caps, the power-cut instant.
type plan func(*gcsteering.Config, gcsteering.Trace)

// replay runs one harness cell: it generates the workload's trace from
// cfg, lets p (when non-nil) fill in the trace-dependent fields, then
// builds the system once through the grid's warm-up memo and replays the
// trace on it.
func replay(memo *gcsteering.Warmup, cfg gcsteering.Config, wl string, maxReq int, p plan) (*gcsteering.Results, error) {
	tr, err := cfg.GenerateWorkload(wl, maxReq)
	if err != nil {
		return nil, err
	}
	if p != nil {
		p(&cfg, tr)
	}
	sys, err := memo.New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Replay(tr)
}

// cellRun runs one grid cell on its Config through the grid's memo.
type cellRun[T any] func(memo *gcsteering.Warmup, cfg gcsteering.Config, wl string) (T, error)

// single runs a cell as one replay under p.
func single(o Options, p plan) cellRun[*gcsteering.Results] {
	return func(memo *gcsteering.Warmup, cfg gcsteering.Config, wl string) (*gcsteering.Results, error) {
		return replay(memo, cfg, wl, o.maxRequests(), p)
	}
}

// averaged runs a cell as o.repeats() replays under p, the seed stepping
// by 1000 per repeat, and averages them.
func averaged(o Options, p plan) cellRun[*AvgResults] {
	return func(memo *gcsteering.Warmup, cfg gcsteering.Config, wl string) (*AvgResults, error) {
		avg := &AvgResults{}
		for i := range o.repeats() {
			c := cfg
			c.Seed += int64(i) * 1000
			r, err := replay(memo, c, wl, o.maxRequests(), p)
			if err != nil {
				return nil, err
			}
			avg.add(r)
		}
		return avg, nil
	}
}

// runGrid runs every workload × variant cell of g on the worker pool. A
// cell's Config is o's base, then setup, then the variant's set; run replays it through the grid's one warm-up memo, and post
// records its result into g from a single goroutine.
func runGrid[T any](o Options, g *Grid, vs []variant, setup func(*gcsteering.Config), run cellRun[T], post func(Cell, T)) (*Grid, error) {
	memo := new(gcsteering.Warmup)
	var jobs []cellJob
	for _, w := range g.Workloads {
		for _, v := range vs {
			cfg := o.base()
			setup(&cfg)
			v.set(&cfg)
			jobs = append(jobs, cellJob{
				cell: Cell{w, v.name},
				run:  func() (any, error) { return run(memo, cfg, w) },
				post: func(c Cell, r any) { post(c, r.(T)) },
			})
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
}

// steer runs every cell of a sensitivity grid under GC-Steering.
func steer(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeSteering }

// reserveForRebuild provisions reserved space large enough to hold a
// failed member's contents for the parallel reconstruction workflow. The
// rebuild grids apply it to every scheme, keeping the array geometry
// identical across variants.
func reserveForRebuild(c *gcsteering.Config) { c.ReservedFrac = 0.30 }

// minTraceSeconds floors a trace's duration, so degenerate traces (a
// single request, or every arrival stamped t=0) still size finite — if
// very high — bandwidth caps instead of +Inf.
const minTraceSeconds = 1e-3

// traceSeconds is the trace's duration (its last arrival) in seconds,
// floored at minTraceSeconds. The fault grids place their fault instants
// and size their bandwidth caps as fractions of it.
func traceSeconds(tr gcsteering.Trace) float64 {
	if len(tr) == 0 {
		return minTraceSeconds
	}
	return max(tr[len(tr)-1].Timestamp.Seconds(), minTraceSeconds)
}

// rebuildBandwidthMBps computes the rebuild bandwidth cap (MB/s) that makes
// reconstructing one member of a disks-wide array with the given total
// logical capacity take the given number of seconds.
func rebuildBandwidthMBps(capacityBytes int64, disks int, seconds float64) float64 {
	diskBytes := float64(capacityBytes) / float64(disks-1)
	return diskBytes / 1e6 / seconds
}

// Table1 regenerates the trace-characteristics table: for each profile it
// synthesizes the trace and reports the measured read ratio, request count
// and average request size next to the published targets.
func Table1(o Options) (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "== Table I: trace characteristics (synthetic vs published) ==")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "trace\tread ratio\t(paper)\tnum of req\t(paper)\tavg size KB\t(paper)")
	for _, p := range workload.All() {
		tr, err := workload.Generate(p, workload.Options{
			Capacity:    4 << 30,
			MaxRequests: o.maxRequests(),
			Seed:        o.Seed + 7,
		})
		if err != nil {
			return "", err
		}
		s := trace.ComputeStats(tr)
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%d\t%d\t%.1f\t%.1f\n",
			p.Name, 100*s.ReadRatio, 100*p.ReadRatio, s.Requests, p.Requests, s.AvgSizeKB, p.AvgReqKB)
	}
	tw.Flush()
	fmt.Fprintln(&b, "(num of req column is capped by -requests; the published counts are the full traces)")
	return b.String(), nil
}

// Fig2 regenerates the page-type analysis: the share of reads landing on
// read-intensive pages and writes on write-intensive pages, per MSR trace.
func Fig2(o Options) (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "== Figure 2: read/write distribution over RI/WI/MIX pages ==")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "trace\treads→RI\treads→MIX\treads→WI\twrites→WI\twrites→MIX\twrites→RI")
	var sumR, sumW float64
	n := 0
	for _, p := range workload.Enterprise() {
		tr, err := workload.Generate(p, workload.Options{
			Capacity:    4 << 30,
			MaxRequests: o.maxRequests(),
			Seed:        o.Seed + 7,
		})
		if err != nil {
			return "", err
		}
		c := trace.ClassifyPages(tr, 4096, 0.9)
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			p.Name,
			100*c.ReadShare(trace.ClassRI), 100*c.ReadShare(trace.ClassMIX), 100*c.ReadShare(trace.ClassWI),
			100*c.WriteShare(trace.ClassWI), 100*c.WriteShare(trace.ClassMIX), 100*c.WriteShare(trace.ClassRI))
		sumR += c.ReadShare(trace.ClassRI)
		sumW += c.WriteShare(trace.ClassWI)
		n++
	}
	tw.Flush()
	fmt.Fprintf(&b, "average: %.1f%% of reads on RI pages (paper: 89.8%%), %.1f%% of writes on WI pages (paper: 95.5%%)\n",
		100*sumR/float64(n), 100*sumW/float64(n))
	return b.String(), nil
}

// Fig7 regenerates the headline comparison: mean response time (7a) and GC
// counts (7b) for LGC, GGC and GC-Steering over all eight workloads,
// normalized to LGC.
func Fig7(o Options) (*Grid, error) {
	g := newGrid("Figure 7: LGC vs GGC vs GC-Steering (RAID5, 5 SSDs, 64KB unit)",
		allWorkloads(), names(schemeVariants))
	return runGrid(o, g, schemeVariants, unchanged, averaged(o, nil), func(c Cell, r *AvgResults) {
		g.Mean[c] = r.MeanNs / 1e3
		g.addAux("GC count (episodes)", c, r.GCEpisodes)
		g.addAux("p99 response time (µs)", c, r.P99Ns/1e3)
		if c.Variant == "GC-Steering" {
			g.addAux("redirect ratio (%)", c, 100*r.Redirect)
		}
	})
}

// recordMean records a sensitivity cell's averaged mean response time.
func recordMean(g *Grid) func(Cell, *AvgResults) {
	return func(c Cell, r *AvgResults) { g.Mean[c] = r.MeanNs / 1e3 }
}

// Fig8 regenerates the number-of-SSDs sensitivity study: GC-Steering on
// RAID5 arrays of 5 and 7 SSDs. Both array sizes replay the identical
// trace (sized to the smaller array) so the comparison isolates the disk
// count.
func Fig8(o Options) (*Grid, error) {
	var vs []variant
	for _, disks := range []int{5, 7} {
		vs = append(vs, variant{fmt.Sprintf("%d SSDs", disks), func(c *gcsteering.Config) { c.Disks = disks }})
	}
	g := newGrid("Figure 8: impact of the number of SSDs (GC-Steering)", fig8Workloads(), names(vs))
	run := func(memo *gcsteering.Warmup, cfg gcsteering.Config, wl string) (*AvgResults, error) {
		// Generate the trace at 5 disks, then build the cell's array.
		disks := cfg.Disks
		cfg.Disks = 5
		return averaged(o, func(c *gcsteering.Config, _ gcsteering.Trace) { c.Disks = disks })(memo, cfg, wl)
	}
	return runGrid(o, g, vs, steer, run, recordMean(g))
}

// Fig9 regenerates the stripe-unit-size sensitivity study: 4 KB, 64 KB and
// 128 KB units under GC-Steering.
func Fig9(o Options) (*Grid, error) {
	var vs []variant
	for _, kb := range []int{4, 64, 128} {
		vs = append(vs, variant{fmt.Sprintf("%dKB", kb), func(c *gcsteering.Config) { c.StripeUnitKB = kb }})
	}
	g := newGrid("Figure 9: impact of the stripe unit size (GC-Steering)", fig8Workloads(), names(vs))
	return runGrid(o, g, vs, steer, averaged(o, nil), recordMean(g))
}

// Fig10 regenerates the staging-space design-choice study: reserved space
// of each SSD vs a dedicated spare SSD.
func Fig10(o Options) (*Grid, error) {
	vs := []variant{
		steering(gcsteering.StagingReserved.String(), gcsteering.StagingReserved),
		steering(gcsteering.StagingDedicated.String(), gcsteering.StagingDedicated),
	}
	g := newGrid("Figure 10: impact of the staging space (GC-Steering)", fig8Workloads(), names(vs))
	return runGrid(o, g, vs, unchanged, averaged(o, nil), recordMean(g))
}

// Ablation switches off GC-Steering's mechanisms one at a time: popular-read
// migration (§III-B), merge-before-reclaim (§III-C), and the controller's
// GC-aware write path, which leaves partial-stripe writes to plain RMW.
func Ablation(o Options) (*Grid, error) {
	vs := []variant{
		{"GC-Steering", unchanged},
		{"no migration", func(c *gcsteering.Config) { c.MigrateHotReads = false }},
		{"no merge", func(c *gcsteering.Config) { c.ReclaimMerge = false }},
		{"RMW only", func(c *gcsteering.Config) { c.DisableGCAwareWrites = true }},
	}
	g := newGrid("Ablation: GC-Steering with one mechanism off", fig8Workloads(), names(vs))
	return runGrid(o, g, vs, steer, averaged(o, nil), recordMean(g))
}

// Fig11 regenerates the reconstruction study: the mean user response time
// during RAID rebuild, normalized to the same scheme's response time with
// no rebuild under way. The paper's setup: 6 SSDs total, 5 servicing user
// I/O, the sixth acting as replacement (and as GC-Steering Dedicated's
// staging); rebuild bandwidth capped at 10 MB/s. Each rebuild run is a
// fault plan failing disk 2 at time zero; the baselines rebuild onto a
// spare, GC-Steering into its staging space (§III-D case ②).
func Fig11(o Options) (*Grid, error) {
	vs := []variant{lgc, ggc,
		steering("GC-Steering(Reserved)", gcsteering.StagingReserved),
		steering("GC-Steering(Dedicated)", gcsteering.StagingDedicated)}
	g := newGrid("Figure 11: response time during RAID reconstruction, normalized to the no-rebuild state",
		fig8Workloads(), names(vs))
	rebuild := func(c *gcsteering.Config, tr gcsteering.Trace) {
		target := gcsteering.RebuildToSpare
		if c.Scheme == gcsteering.SchemeSteering {
			target = gcsteering.RebuildToStaging
		}
		// The paper rebuilds a 120 GB SSD at 10 MB/s — several hours,
		// longer than the one-hour traces, so recovery is under way for the
		// entire replay. Scale the bandwidth cap so the simulated rebuild
		// likewise spans the trace.
		c.Fault = gcsteering.FaultPlan{
			Failures:      []gcsteering.DiskFault{{Disk: 2, AtMs: 0}},
			RebuildMBps:   rebuildBandwidthMBps(c.Capacity(), c.Disks, traceSeconds(tr)),
			RebuildTarget: target,
		}
	}
	// Two runs per cell: normal and during-rebuild; the grid's primary
	// metric is the during-rebuild mean; the ratio goes in Aux.
	run := func(memo *gcsteering.Warmup, cfg gcsteering.Config, wl string) (rebuildPair, error) {
		normal, err := replay(memo, cfg, wl, o.maxRequests(), nil)
		if err != nil {
			return rebuildPair{}, err
		}
		reb, err := replay(memo, cfg, wl, o.maxRequests(), rebuild)
		return rebuildPair{normal: normal, rebuild: reb}, err
	}
	return runGrid(o, g, vs, reserveForRebuild, run, func(c Cell, pair rebuildPair) {
		// The degraded-phase latency covers exactly the requests that
		// arrived while the reconstruction was under way.
		during := pair.rebuild.Fault.DegradedLatency.Mean
		g.Mean[c] = during / 1e3
		if pair.normal.Latency.Mean > 0 {
			g.addAux("normalized to normal state", c, during/pair.normal.Latency.Mean)
		}
		g.addAux("rebuild duration (s)", c, pair.rebuild.Fault.RebuildTime.Seconds())
	})
}

// rebuildPair carries the two runs of one Fig. 11 cell.
type rebuildPair struct {
	normal  *gcsteering.Results
	rebuild *gcsteering.Results
}

// RAID6 exercises the paper's future-work direction: the same scheme
// comparison on a RAID6 array (6 SSDs, double parity).
func RAID6(o Options) (*Grid, error) {
	g := newGrid("Extension: LGC vs GGC vs GC-Steering on RAID6 (6 SSDs, 64KB unit)",
		[]string{"HPC_W", "Fin1", "prxy_0"}, names(schemeVariants))
	raid6 := func(c *gcsteering.Config) {
		c.Level = gcsteering.RAID6
		c.Disks = 6
	}
	return runGrid(o, g, schemeVariants, raid6, averaged(o, nil), func(c Cell, r *AvgResults) {
		g.Mean[c] = r.MeanNs / 1e3
		g.addAux("GC count (episodes)", c, r.GCEpisodes)
	})
}

// Fig1 reproduces the paper's Figure 1 motivation: the response-time
// timeline of an SSD-based RAID as members enter and leave garbage
// collection, for each scheme. The output is a per-scheme ASCII profile of
// 100 ms-window mean response times plus the coefficient of variation —
// LGC's staggered collections keep the array almost continuously degraded
// (the paper's "degraded performance state almost all the time"), GGC
// concentrates the degradation, and GC-Steering flattens it.
//
// Fig1 is the tracing-aware experiment: its three runs are sequential, so
// Options.Trace (separated by run-start events labelled "fig1/<scheme>")
// and Options.SeriesOut (one labelled CSV block per scheme, with per-window
// P99 enabled) are honoured here.
func Fig1(o Options) (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "== Figure 1: GC-induced performance variability (HPC_W timeline) ==")
	header := true
	memo := new(gcsteering.Warmup)
	for _, v := range schemeVariants {
		cfg := o.base()
		v.set(&cfg)
		cfg.Trace = o.Trace
		if o.SeriesOut != nil {
			cfg.WindowQuantiles = true
		}
		if cfg.Trace.Enabled() {
			cfg.Trace.RunStart(0, "fig1/"+v.name)
		}
		res, err := replay(memo, cfg, "HPC_W", o.maxRequests(), nil)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s cv=%.2f  mean=%8.1fµs  |%s|\n",
			v.name, res.VariabilityCV, res.Latency.Mean/1e3, res.Series.Sparkline(60))
		if o.SeriesOut != nil {
			if err := res.Series.WriteCSV(o.SeriesOut, v.name, header); err != nil {
				return "", err
			}
			header = false
		}
	}
	fmt.Fprintln(&b, "(each cell is the mean response time of one 100ms window; taller = slower)")
	return b.String(), nil
}

// Endurance quantifies the reliability angle of §II-A: total block erases
// and worst-block wear per scheme under a write-heavy workload. Erases are
// the budget flash endurance is spent from, so a scheme that forces extra
// collections (GGC) ages the array faster, while GC-Steering leaves the
// erase budget untouched.
func Endurance(o Options) (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "== Endurance: erase activity per scheme (prxy_0, write-heavy) ==")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\terases\tmax block erases\tmean block erases\twrite amp")
	memo := new(gcsteering.Warmup)
	for _, v := range schemeVariants {
		cfg := o.base()
		v.set(&cfg)
		res, err := replay(memo, cfg, "prxy_0", o.maxRequests(), nil)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\n",
			v.name, res.Erases, res.Wear.MaxErase, res.Wear.MeanErase, res.WriteAmp)
	}
	tw.Flush()
	return b.String(), nil
}
