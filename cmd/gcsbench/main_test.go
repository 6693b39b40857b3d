package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gcsteering/internal/harness"
)

func TestUnknownExperimentExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "fig99"}, &out, &errb); code == 0 {
		t.Fatal("unknown experiment exited 0")
	}
	if !strings.Contains(errb.String(), `unknown experiment "fig99"`) {
		t.Fatalf("stderr %q lacks a clear unknown-experiment message", errb.String())
	}
	// The error lists what IS runnable, so a typo is a one-step fix.
	for _, e := range harness.Experiments {
		if !strings.Contains(errb.String(), e.Name) {
			t.Fatalf("stderr %q does not name experiment %q", errb.String(), e.Name)
		}
	}
}

func TestListExperimentsPrintsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list-experiments"}, &out, &errb); code != 0 {
		t.Fatalf("-list-experiments exited %d: %s", code, errb.String())
	}
	for _, e := range harness.Experiments {
		if !strings.Contains(out.String(), e.Name) {
			t.Fatalf("registry %q missing experiment %q", out.String(), e.Name)
		}
		if e.Blurb == "" {
			t.Fatalf("experiment %q has no blurb", e.Name)
		}
		if !strings.Contains(out.String(), e.Blurb) {
			t.Fatalf("registry %q missing blurb for %q", out.String(), e.Name)
		}
	}
	if !strings.Contains(out.String(), "all") {
		t.Fatalf("registry %q missing the all pseudo-experiment", out.String())
	}
}

func TestListExperimentsSorted(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list-experiments"}, &out, &errb); code != 0 {
		t.Fatalf("-list-experiments exited %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	// Every line except the trailing "all" summary must be in sorted order.
	var names []string
	for _, l := range lines[:len(lines)-1] {
		names = append(names, strings.Fields(l)[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("registry not sorted: %v", names)
	}
	if len(names) != len(harness.Experiments) {
		t.Fatalf("registry lists %d experiments, have %d", len(names), len(harness.Experiments))
	}
}

func TestJSONDocCarriesSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "table1", "-requests", "300", "-json", path}, &out, &errb); code != 0 {
		t.Fatalf("exited %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != jsonSchemaVersion {
		t.Fatalf("schema = %d, want %d", doc.Schema, jsonSchemaVersion)
	}
}

func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet grid")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "cluster", "-requests", "800"}, &out, &errb); code != 0 {
		t.Fatalf("cluster exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"Fleet simulation", "hash-only", "gc-aware", "redirects"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("cluster output missing %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownFlagExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code == 0 {
		t.Fatal("unknown flag exited 0")
	}
}

func TestUnwritableOutputPathsExitNonZero(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "out")
	for _, flag := range []string{"-trace", "-timeseries"} {
		var out, errb bytes.Buffer
		code := run([]string{"-experiment", "table1", flag, bad}, &out, &errb)
		if code == 0 {
			t.Fatalf("%s %s exited 0", flag, bad)
		}
		if !strings.Contains(errb.String(), "create") {
			t.Fatalf("%s: stderr %q lacks the create error", flag, errb.String())
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "table1", "-requests", "500"}, &out, &errb); code != 0 {
		t.Fatalf("table1 exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table I") {
		t.Fatalf("stdout %q lacks the Table I report", out.String())
	}
}

var update = flag.Bool("update", false, "rewrite testdata/all_400.json from the current build")

// TestGoldenGrids is the grid regression gate: every experiment, run
// through the CLI at 400 requests, must reproduce the committed document
// byte for byte — serially and on a four-worker pool (fixed, so the pool
// runs even on a one-CPU machine), which also pins that the worker count
// is pure parallelism. Rerun with -update after a
// change that is meant to move the numbers.
func TestGoldenGrids(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	golden := filepath.Join("testdata", "all_400.json")
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(t.TempDir(), "all.json")
		var out, errb bytes.Buffer
		argv := []string{"-experiment", "all", "-requests", "400", "-workers", workers, "-json", path}
		if code := run(argv, &out, &errb); code != 0 {
			t.Fatalf("-workers %s exited %d: %s", workers, code, errb.String())
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if *update && workers == "1" {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("-workers %s: output differs from %s (rerun with -update if the change is intended)", workers, golden)
		}
	}
}

// gridDoc is the part of a grid's -json entry the golden checks read.
type gridDoc struct {
	Variants []string                                 `json:"variants"`
	Metrics  map[string]map[string]map[string]float64 `json:"metrics"`
}

// goldenGrid returns the named grid experiment of the committed golden
// document.
func goldenGrid(t *testing.T, name string) *gridDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "all_400.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiments []struct {
			Name string   `json:"name"`
			Grid *gridDoc `json:"grid"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, e := range doc.Experiments {
		if e.Name == name && e.Grid != nil {
			return e.Grid
		}
	}
	t.Fatalf("golden has no %s grid", name)
	return nil
}

// TestGoldenCrashRowsInterruptWrites guards the golden against a vacuous
// crash grid: every crash regime must have cut some stripe writes.
func TestGoldenCrashRowsInterruptWrites(t *testing.T) {
	rows := goldenGrid(t, "crashconsist").Metrics["dirty stripes (journal scope)"]
	if len(rows) == 0 {
		t.Fatal("crashconsist grid has no dirty-stripe rows")
	}
	for regime, row := range rows {
		if row["journal"] <= 0 {
			t.Errorf("%s: no dirty stripes at the cut (%v)", regime, row)
		}
	}
}

// TestGoldenAblationColumnsMove guards the golden against an inert switch:
// each mechanism the ablation grid turns off must change GC-Steering's
// mean response time on at least one workload.
func TestGoldenAblationColumnsMove(t *testing.T) {
	g := goldenGrid(t, "ablation")
	rows := g.Metrics["mean response time (µs)"]
	if len(rows) == 0 {
		t.Fatal("ablation grid has no mean response time rows")
	}
	for _, v := range g.Variants {
		if v == "GC-Steering" {
			continue
		}
		moved := false
		for _, row := range rows {
			if row[v] != row["GC-Steering"] {
				moved = true
			}
		}
		if !moved {
			t.Errorf("%q equals GC-Steering on every workload: the switch is inert", v)
		}
	}
}
