package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"gcsteering"
)

// benchmarkJSON is the subset of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var want []metricDef
	for _, m := range b.EndToEnd {
		want = append(want, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range b.PerLayer {
		want = append(want, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Layer: true})
	}
	if len(want) != len(metricTable) {
		t.Fatalf("BENCHMARK.json lists %d metrics, metricTable %d", len(want), len(metricTable))
	}
	for i := range want {
		if want[i] != metricTable[i] {
			t.Errorf("metric %d: BENCHMARK.json %+v, metricTable %+v", i, want[i], metricTable[i])
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// resultLines runs the command and decodes its per-workload result lines,
// keeping each line's raw text too.
func resultLines(t *testing.T, args ...string) ([]resultLine, []string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v: exit %d\nstderr: %s\nstdout: %s", args, code, errb.String(), out.String())
	}
	var lines []resultLine
	var raw []string
	for _, l := range strings.Split(out.String(), "\n") {
		if !strings.HasPrefix(l, `{"correct":`) {
			continue
		}
		var r resultLine
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("result line does not decode: %v\n%s", err, l)
		}
		lines = append(lines, r)
		raw = append(raw, l)
	}
	if len(lines) != len(workloads) {
		t.Fatalf("got %d result lines, want one per workload (%d)", len(lines), len(workloads))
	}
	return lines, raw
}

// metricKey matches one key of a result line's metrics object.
var metricKey = regexp.MustCompile(`"([^"]+)":\{"value"`)

func simValues(r resultLine) map[string]float64 {
	out := map[string]float64{}
	for name, v := range r.Metrics {
		if strings.HasPrefix(name, "sim_") || strings.HasPrefix(name, "steer_") {
			out[name] = v.Value
		}
	}
	return out
}

// TestQuickSmoke runs every workload at 1/20 scale and checks the output
// contract: every metric of BENCHMARK.json appears with its unit, the
// result lines are sorted by key, and the simulated metrics are a pure
// function of the seed.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at 1/20 scale")
	}
	b := readBenchmarkJSON(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	doc := filepath.Join(t.TempDir(), "doc.json")
	full, raw := resultLines(t, "-quick", "-seed", "3", "-json", doc)
	for i, r := range full {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workloads[i].name, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(units) {
			t.Errorf("%s: %d metrics, BENCHMARK.json has %d", workloads[i].name, len(r.Metrics), len(units))
		}
		for name, unit := range units {
			if got, ok := r.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("%s: metric %s = %+v, want unit %q", workloads[i].name, name, got, unit)
			}
		}
		var keys []string
		for _, m := range metricKey.FindAllStringSubmatch(raw[i], -1) {
			keys = append(keys, m[1])
		}
		if !sort.StringsAreSorted(keys) {
			t.Errorf("%s: result line keys are not sorted: %v", workloads[i].name, keys)
		}
	}
	if _, err := readDoc(doc); err != nil {
		t.Errorf("-json document: %v", err)
	}

	again, _ := resultLines(t, "-quick", "-seed", "3", "-trace", "0")
	other, _ := resultLines(t, "-quick", "-seed", "4", "-trace", "0")
	for i := range full {
		want, got, diff := simValues(full[i]), simValues(again[i]), simValues(other[i])
		if len(want) == 0 {
			t.Fatalf("%s: no simulated metrics", workloads[i].name)
		}
		changed := false
		for name, v := range want {
			if got[name] != v {
				t.Errorf("%s: %s = %v on a rerun of seed 3, first run %v", workloads[i].name, name, got[name], v)
			}
			changed = changed || diff[name] != v
		}
		if !changed {
			t.Errorf("%s: seed 4 gave the same simulated metrics as seed 3", workloads[i].name)
		}
	}
}

func TestBadInvocations(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-workloads", "nope"}, 1},
		{[]string{"-trace", "2"}, 1},
		{[]string{"-seconds", "0"}, 1},
		{[]string{"-compare", "base.json"}, 1},
		{[]string{"-no-such-flag"}, 2},
		{[]string{"extra"}, 1},
	} {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != c.code {
			t.Errorf("run %v: exit %d, want %d (stderr %q)", c.args, code, c.code, errb.String())
		}
	}
}

func writeDoc(t *testing.T, d document) string {
	t.Helper()
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	doc := func(host, hostSpread, sim float64, correct bool) document {
		return document{Schema: docSchema, Workloads: []workloadDoc{{Name: "hpc_w", Correct: correct, Metrics: []metricDoc{
			{Name: "host_ns_per_req", Median: host, P25: host * (1 - hostSpread/2), P75: host * (1 + hostSpread/2), N: 10},
			{Name: "sim_mean_us", Median: sim, P25: sim, P75: sim, N: 1},
			{Name: "cpu.sim", Median: 0.3, P25: 0.3, P75: 0.3, N: 1},
		}}}}
	}
	cases := []struct {
		name     string
		head     document
		code     int
		verdicts []string
	}{
		{"identical", doc(1000, 0.02, 50, true), 0, []string{"same", "same", "info"}},
		{"faster", doc(700, 0.02, 50, true), 0, []string{"better", "same", "info"}},
		{"slower", doc(1400, 0.02, 50, true), 1, []string{"worse", "same", "info"}},
		{"noisy", doc(1400, 0.6, 50, true), 0, []string{"unresolved", "same", "info"}},
		{"modeled worse", doc(1000, 0.02, 65, true), 1, []string{"same", "worse", "info"}},
		{"checks failed", doc(1000, 0.02, 50, false), 1, nil},
	}
	base := writeDoc(t, doc(1000, 0.02, 50, true))
	for _, c := range cases {
		var out, errb bytes.Buffer
		code := run([]string{"-compare", base, writeDoc(t, c.head)}, &out, &errb)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errb.String())
		}
		rows := strings.Split(out.String(), "\n")
		for i, v := range c.verdicts {
			if fields := strings.Fields(rows[1+i]); fields[len(fields)-1] != v {
				t.Errorf("%s: row %q, want verdict %s", c.name, rows[1+i], v)
			}
		}
	}
}

func TestObsCounterAcrossSplitWrites(t *testing.T) {
	stream := `{"t":0,"ev":"arrival","dev":-1,"page":0,"pages":16,"aux":1,"aux2":0}
{"t":0,"ev":"subop","dev":2,"page":0,"pages":16,"aux":1,"aux2":0}
{"t":5,"ev":"gc-start","dev":2,"page":-1,"pages":40,"aux":900,"aux2":0}
{"t":10,"ev":"subop","dev":2,"page":16,"pages":16,"aux":4,"aux2":1}
{"t":20,"ev":"arrival","dev":-1,"page":16,"pages":16,"aux":0,"aux2":1}
{"t":950,"ev":"arrival","dev":-1,"page":16,"pages":16,"aux":0,"aux2":2,"note":"x"}
`
	for _, chunk := range []int{1, 7, 64, len(stream)} {
		c := &obsCounter{}
		for i := 0; i < len(stream); i += chunk {
			if _, err := c.Write([]byte(stream[i:min(i+chunk, len(stream))])); err != nil {
				t.Fatal(err)
			}
		}
		if c.err != nil || c.events != 6 || c.arrivals != 3 || c.subopTotal() != 2 || c.subopsGC != 1 ||
			c.subops[1] != 1 || c.subops[4] != 1 || len(c.arrivedInGC) != 3 ||
			c.arrivedInGC[0] || !c.arrivedInGC[1] || c.arrivedInGC[2] {
			t.Errorf("chunk %d: %+v", chunk, c)
		}
	}
	c := &obsCounter{}
	c.Write([]byte("{\"t\":x}\n"))
	if c.err == nil {
		t.Error("malformed line accepted")
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.P25 != 2.75 || s.Median != 5.5 || s.P75 != 8.25 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize([]float64{4, 1, 2}); s.P25 != 1 || s.Median != 2 || s.P75 != 4 {
		t.Errorf("summarize(1,2,4) = %+v", s)
	}
}

// TestCPUSharesAttributesRepositoryFrames profiles array construction and
// checks the decoder charges its samples to the flash and ssd layers.
func TestCPUSharesAttributesRepositoryFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles half a second of work")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := gcsteering.New(gcsteering.DefaultConfig()); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, n, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Skip("profiler collected no samples")
	}
	total := 0.0
	for _, l := range cpuLayers {
		total += shares[l]
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v: %v", total, shares)
	}
	// Only a floor: under -race most samples land in the race runtime's C
	// frames, which carry no Go frame to attribute.
	if shares["flash"]+shares["ssd"] == 0 {
		t.Errorf("prefill work not charged to flash/ssd: %v (%d samples)", shares, n)
	}
}

func TestLayerOfFunc(t *testing.T) {
	for name, want := range map[string]string{
		"gcsteering.(*System).submit":                 "gcsteering",
		"gcsteering/internal/sim.(*Engine).Step":      "sim",
		"gcsteering/internal/raid.(*Array).issue":     "raid",
		"gcsteering/internal/trace.Validate":          "other",
		"gcsteering/internal/core.barrier.func1":      "core",
		"gcsteering/internal/harness.runCells.func1":  "harness",
		"gcsteering/internal/cluster.Config.runShard": "cluster",
	} {
		if got, ok := layerOfFunc(name); !ok || got != want {
			t.Errorf("layerOfFunc(%q) = %q, %v; want %q", name, got, ok, want)
		}
	}
	for _, name := range []string{"runtime.mallocgc", "main.run", "gcsteeringx.F"} {
		if _, ok := layerOfFunc(name); ok {
			t.Errorf("layerOfFunc(%q) claimed a repository frame", name)
		}
	}
}
