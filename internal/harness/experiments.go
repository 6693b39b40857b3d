package harness

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"gcsteering"
	"gcsteering/internal/trace"
	"gcsteering/internal/workload"
)

// schemes used across the figures, in the paper's order.
var schemeVariants = []struct {
	name string
	set  func(*gcsteering.Config)
}{
	{"LGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeLGC }},
	{"GGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeGGC }},
	{"GC-Steering", func(c *gcsteering.Config) {
		c.Scheme = gcsteering.SchemeSteering
		c.Staging = gcsteering.StagingReserved
	}},
}

// allWorkloads is the paper's Table I order.
func allWorkloads() []string { return workload.Names() }

// fig8Workloads is the five-workload subset the sensitivity figures use.
func fig8Workloads() []string {
	return []string{"HPC_W", "HPC_R", "Fin1", "hm_0", "prxy_0"}
}

// replayCell builds a system (with the given extra seed shift),
// synthesizes the workload sized to its capacity, and replays it.
func replayCell(cfg gcsteering.Config, wl string, maxReq int, seedShift int64) (*gcsteering.Results, error) {
	cfg.Seed += seedShift
	sys, err := gcsteering.New(cfg)
	if err != nil {
		return nil, err
	}
	tr, err := sys.GenerateWorkload(wl, maxReq)
	if err != nil {
		return nil, err
	}
	return sys.Replay(tr)
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
		allWorkloads(), variantNames())
	var jobs []cellJob
	for _, w := range g.Workloads {
		for _, v := range schemeVariants {
			w, v := w, v
			cfg := o.base()
			v.set(&cfg)
			jobs = append(jobs, replayJob(Cell{w, v.name}, o.repeats(),
				func(shift int64) (*gcsteering.Results, error) { return replayCell(cfg, w, o.maxRequests(), shift) },
				func(c Cell, r *AvgResults) {
					g.Mean[c] = r.MeanNs / 1e3
					g.addAux("GC count (episodes)", c, r.GCEpisodes)
					g.addAux("p99 response time (µs)", c, r.P99Ns/1e3)
					if c.Variant == "GC-Steering" {
						g.addAux("redirect ratio (%)", c, 100*r.Redirect)
					}
				}))
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
}

func variantNames() []string {
	out := make([]string, len(schemeVariants))
	for i, v := range schemeVariants {
		out[i] = v.name
	}
	return out
}

// Fig8 regenerates the number-of-SSDs sensitivity study: GC-Steering on
// RAID5 arrays of 5 and 7 SSDs. Both array sizes replay the identical
// trace (sized to the smaller array) so the comparison isolates the disk
// count.
func Fig8(o Options) (*Grid, error) {
	g := newGrid("Figure 8: impact of the number of SSDs (GC-Steering)",
		fig8Workloads(), []string{"5 SSDs", "7 SSDs"})
	var jobs []cellJob
	for _, w := range g.Workloads {
		for _, disks := range []int{5, 7} {
			w, disks := w, disks
			cfg := o.base()
			cfg.Scheme = gcsteering.SchemeSteering
			cfg.Disks = disks
			jobs = append(jobs, replayJob(Cell{w, fmt.Sprintf("%d SSDs", disks)}, o.repeats(),
				func(shift int64) (*gcsteering.Results, error) {
					cfg := cfg
					cfg.Seed += shift
					small := cfg
					small.Disks = 5
					ref, err := gcsteering.New(small)
					if err != nil {
						return nil, err
					}
					tr, err := ref.GenerateWorkload(w, o.maxRequests())
					if err != nil {
						return nil, err
					}
					sys, err := gcsteering.New(cfg)
					if err != nil {
						return nil, err
					}
					return sys.Replay(tr)
				},
				func(c Cell, r *AvgResults) { g.Mean[c] = r.MeanNs / 1e3 }))
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
}

// Fig9 regenerates the stripe-unit-size sensitivity study: 4 KB, 64 KB and
// 128 KB units under GC-Steering.
func Fig9(o Options) (*Grid, error) {
	sizes := []int{4, 64, 128}
	variants := make([]string, len(sizes))
	for i, s := range sizes {
		variants[i] = fmt.Sprintf("%dKB", s)
	}
	g := newGrid("Figure 9: impact of the stripe unit size (GC-Steering)", fig8Workloads(), variants)
	var jobs []cellJob
	for _, w := range g.Workloads {
		for i, size := range sizes {
			w, size, variant := w, size, variants[i]
			cfg := o.base()
			cfg.Scheme = gcsteering.SchemeSteering
			cfg.StripeUnitKB = size
			jobs = append(jobs, replayJob(Cell{w, variant}, o.repeats(),
				func(shift int64) (*gcsteering.Results, error) { return replayCell(cfg, w, o.maxRequests(), shift) },
				func(c Cell, r *AvgResults) { g.Mean[c] = r.MeanNs / 1e3 }))
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
}

// Fig10 regenerates the staging-space design-choice study: reserved space
// of each SSD vs a dedicated spare SSD.
func Fig10(o Options) (*Grid, error) {
	g := newGrid("Figure 10: impact of the staging space (GC-Steering)",
		fig8Workloads(), []string{"Reserved", "Dedicated"})
	var jobs []cellJob
	for _, w := range g.Workloads {
		for _, staging := range []gcsteering.StagingKind{gcsteering.StagingReserved, gcsteering.StagingDedicated} {
			w, staging := w, staging
			cfg := o.base()
			cfg.Scheme = gcsteering.SchemeSteering
			cfg.Staging = staging
			jobs = append(jobs, replayJob(Cell{w, staging.String()}, o.repeats(),
				func(shift int64) (*gcsteering.Results, error) { return replayCell(cfg, w, o.maxRequests(), shift) },
				func(c Cell, r *AvgResults) { g.Mean[c] = r.MeanNs / 1e3 }))
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
}

// Fig11 regenerates the reconstruction study: the mean user response time
// during RAID rebuild, normalized to the same scheme's response time with
// no rebuild under way. The paper's setup: 6 SSDs total, 5 servicing user
// I/O, the sixth acting as replacement (and as GC-Steering Dedicated's
// staging); rebuild bandwidth capped at 10 MB/s. Each rebuild run is a
// fault plan failing disk 2 at time zero; the baselines rebuild onto a
// spare, GC-Steering into its staging space (§III-D case ②).
func Fig11(o Options) (*Grid, error) {
	type variant struct {
		name   string
		set    func(*gcsteering.Config)
		target gcsteering.RebuildTarget
	}
	variants := []variant{
		{"LGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeLGC }, gcsteering.RebuildToSpare},
		{"GGC", func(c *gcsteering.Config) { c.Scheme = gcsteering.SchemeGGC }, gcsteering.RebuildToSpare},
		{"GC-Steering(Reserved)", func(c *gcsteering.Config) {
			c.Scheme = gcsteering.SchemeSteering
			c.Staging = gcsteering.StagingReserved
		}, gcsteering.RebuildToStaging},
		{"GC-Steering(Dedicated)", func(c *gcsteering.Config) {
			c.Scheme = gcsteering.SchemeSteering
			c.Staging = gcsteering.StagingDedicated
		}, gcsteering.RebuildToStaging},
	}
	names := make([]string, len(variants))
	for i, v := range variants {
		names[i] = v.name
	}
	g := newGrid("Figure 11: response time during RAID reconstruction, normalized to the no-rebuild state",
		fig8Workloads(), names)

	// Two runs per cell: normal and during-rebuild; the grid's primary
	// metric is the during-rebuild mean; the ratio goes in Aux.
	var jobs []cellJob
	for _, w := range g.Workloads {
		for _, v := range variants {
			w, v := w, v
			cfg := o.base()
			// The reserved space must be able to hold a failed member's
			// contents for the parallel reconstruction workflow, so this
			// experiment provisions a larger reservation (for every scheme,
			// keeping the array geometry identical across variants).
			cfg.ReservedFrac = 0.30
			v.set(&cfg)
			jobs = append(jobs, cellJob{
				cell: Cell{w, v.name},
				run: func() (any, error) {
					normalSys, err := gcsteering.New(cfg)
					if err != nil {
						return nil, err
					}
					tr, err := normalSys.GenerateWorkload(w, o.maxRequests())
					if err != nil {
						return nil, err
					}
					normal, err := normalSys.Replay(tr)
					if err != nil {
						return nil, err
					}
					// The paper rebuilds a 120 GB SSD at 10 MB/s — several
					// hours, longer than the one-hour traces, so recovery is
					// under way for the entire replay. Scale the bandwidth
					// cap so the simulated rebuild likewise spans the trace.
					bw, err := rebuildBandwidthMBps(normalSys.Capacity(), cfg.Disks, tr)
					if err != nil {
						return nil, err
					}
					cfg := cfg
					cfg.Fault = gcsteering.FaultPlan{
						Failures:      []gcsteering.DiskFault{{Disk: 2, AtMs: 0}},
						RebuildMBps:   bw,
						RebuildTarget: v.target,
					}
					rebSys, err := gcsteering.New(cfg)
					if err != nil {
						return nil, err
					}
					reb, err := rebSys.Replay(tr)
					if err != nil {
						return nil, err
					}
					return rebuildPair{normal: normal, rebuild: reb}, nil
				},
				post: func(c Cell, payload any) {
					// The degraded-phase latency covers exactly the requests
					// that arrived while the reconstruction was under way.
					pair := payload.(rebuildPair)
					during := pair.rebuild.Fault.DegradedLatency.Mean
					g.Mean[c] = during / 1e3
					if pair.normal.Latency.Mean > 0 {
						g.addAux("normalized to normal state", c, during/pair.normal.Latency.Mean)
					}
					g.addAux("rebuild duration (s)", c, pair.rebuild.Fault.RebuildTime.Seconds())
				},
			})
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
}

// rebuildPair carries the two runs of one Fig. 11 cell.
type rebuildPair struct {
	normal  *gcsteering.Results
	rebuild *gcsteering.Results
}

// minRebuildTraceSeconds floors the trace duration used to scale the
// rebuild bandwidth, so degenerate traces (a single request, or every
// arrival stamped t=0) yield a finite — if very high — bandwidth cap
// instead of +Inf.
const minRebuildTraceSeconds = 1e-3

// rebuildBandwidthMBps computes the rebuild bandwidth cap (MB/s) that makes
// reconstructing one member of a disks-wide array with the given total
// logical capacity span the trace's duration. An empty trace has no
// duration to span and is an error.
func rebuildBandwidthMBps(capacityBytes int64, disks int, tr gcsteering.Trace) (float64, error) {
	if len(tr) == 0 {
		return 0, fmt.Errorf("rebuild bandwidth: empty trace has no duration to scale against")
	}
	dur := tr[len(tr)-1].Timestamp.Seconds()
	if dur < minRebuildTraceSeconds {
		dur = minRebuildTraceSeconds
	}
	diskBytes := float64(capacityBytes) / float64(disks-1)
	return diskBytes / 1e6 / dur, nil
}

// RAID6 exercises the paper's future-work direction: the same scheme
// comparison on a RAID6 array (6 SSDs, double parity).
func RAID6(o Options) (*Grid, error) {
	g := newGrid("Extension: LGC vs GGC vs GC-Steering on RAID6 (6 SSDs, 64KB unit)",
		[]string{"HPC_W", "Fin1", "prxy_0"}, variantNames())
	var jobs []cellJob
	for _, w := range g.Workloads {
		for _, v := range schemeVariants {
			w, v := w, v
			cfg := o.base()
			cfg.Level = gcsteering.RAID6
			cfg.Disks = 6
			v.set(&cfg)
			jobs = append(jobs, replayJob(Cell{w, v.name}, o.repeats(),
				func(shift int64) (*gcsteering.Results, error) { return replayCell(cfg, w, o.maxRequests(), shift) },
				func(c Cell, r *AvgResults) {
					g.Mean[c] = r.MeanNs / 1e3
					g.addAux("GC count (episodes)", c, r.GCEpisodes)
				}))
		}
	}
	if err := runCells(jobs, o.workers()); err != nil {
		return nil, err
	}
	return g, nil
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
		res, err := replayCell(cfg, "HPC_W", o.maxRequests(), 0)
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
	for _, v := range schemeVariants {
		cfg := o.base()
		v.set(&cfg)
		res, err := replayCell(cfg, "prxy_0", o.maxRequests(), 0)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%.2f\n",
			v.name, res.Erases, res.Wear.MaxErase, res.Wear.MeanErase, res.WriteAmp)
	}
	tw.Flush()
	return b.String(), nil
}
