package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// Verdicts of -compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictInfo       = "info"
)

// verdict judges head against base for one metric. Bounds come from the
// metric table, which main_test.go holds equal to BENCHMARK.json. A change
// worse than the bound is "worse" and one better than the bound "better";
// when either side's quartile spread is wider than the bound the pair is
// "unresolved", unless every rep of head beat every rep of base. Per-layer
// metrics have no bound and are "info".
func verdict(def metricDef, base, head metricDoc) (string, float64) {
	delta := 0.0
	if base.Median != 0 {
		delta = (head.Median - base.Median) / math.Abs(base.Median)
	}
	worse := delta
	if def.Better == "higher" {
		worse = -delta
	}
	if def.Layer {
		return verdictInfo, delta
	}
	spread := math.Max(summary{base.Median, base.P25, base.P75, base.N}.spread(),
		summary{head.Median, head.P25, head.P75, head.N}.spread())
	headWins := head.P75 < base.P25
	if def.Better == "higher" {
		headWins = head.P25 > base.P75
	}
	switch {
	case spread > def.Bound && headWins:
		return verdictBetter, delta
	case spread > def.Bound:
		return verdictUnresolved, delta
	case worse > def.Bound:
		return verdictWorse, delta
	case -worse > def.Bound:
		return verdictBetter, delta
	default:
		return verdictSame, delta
	}
}

func readDoc(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != docSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, d.Schema, docSchema)
	}
	return &d, nil
}

// runCompare prints one row per workload and metric present in both
// documents and exits 1 when any row is worse or a head workload failed
// its checks.
func runCompare(basePath, headPath string, stdout, stderr io.Writer) int {
	base, err := readDoc(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "gcsperf: %v\n", err)
		return 1
	}
	head, err := readDoc(headPath)
	if err != nil {
		fmt.Fprintf(stderr, "gcsperf: %v\n", err)
		return 1
	}
	defs := map[string]metricDef{}
	for _, d := range metricTable {
		defs[d.Name] = d
	}
	baseWl := map[string]workloadDoc{}
	for _, w := range base.Workloads {
		baseWl[w.Name] = w
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\thead\tchange\tbound\tverdict")
	counts := map[string]int{}
	for _, hw := range head.Workloads {
		bw, ok := baseWl[hw.Name]
		if !ok {
			continue
		}
		if !hw.Correct {
			counts[verdictWorse]++
			fmt.Fprintf(tw, "%s\t(checks)\t\t\t\t\t\t%s\n", hw.Name, verdictWorse)
		}
		bm := map[string]metricDoc{}
		for _, m := range bw.Metrics {
			bm[m.Name] = m
		}
		for _, hm := range hw.Metrics {
			b, ok := bm[hm.Name]
			def, known := defs[hm.Name]
			if !ok || !known {
				continue
			}
			v, delta := verdict(def, b, hm)
			counts[v]++
			bound := "-"
			if !def.Layer {
				bound = fmt.Sprintf("%.0f%%", 100*def.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%s\t%s\n",
				hw.Name, hm.Name, hm.Unit, b.Median, hm.Median, 100*delta, bound, v)
		}
	}
	tw.Flush()
	var parts []string
	for _, v := range sortedStrings(keys(counts)) {
		parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
	}
	fmt.Fprintf(stdout, "summary: %v\n", parts)
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sortedStrings(s []string) []string {
	sort.Strings(s)
	return s
}
