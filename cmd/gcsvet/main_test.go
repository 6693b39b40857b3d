package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gcsteering/internal/lint"
)

func TestListAnalyzers(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, ".", &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, a := range lint.All() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing analyzer %q:\n%s", a.Name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-analyzers", "nosuch"}, ".", &out, &errOut); code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
}

// writeModule creates a throwaway module containing one maporder
// violation (a map range appending unsorted) and returns its directory.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package p

func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFindingsFailRun checks the default mode on a module with one
// finding: it prints as a repo-relative file:line:col line, the count
// goes to stderr, and the run exits 1.
func TestFindingsFailRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export in a temp module")
	}
	dir := writeModule(t)
	var out, errOut strings.Builder
	code := run([]string{"-analyzers", "maporder", "./..."}, dir, &out, &errOut)
	if code != 1 {
		t.Fatalf("run with findings exited %d, want 1\nstderr: %s", code, errOut.String())
	}
	if want := "p.go:6:3: maporder: appends to out in map-iteration order without a later sort; collect keys and sort first\n"; out.String() != want {
		t.Errorf("stdout = %q, want %q", out.String(), want)
	}
	if want := "gcsvet: 1 finding(s)\n"; errOut.String() != want {
		t.Errorf("stderr = %q, want %q", errOut.String(), want)
	}
}

// TestCleanPackage runs the real pipeline end to end over the sim kernel,
// the determinism root of trust (the full-repo sweep lives in
// internal/lint's TestRepoIsClean).
func TestCleanPackage(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export")
	}
	var out, errOut strings.Builder
	if code := run([]string{"./internal/sim"}, "../..", &out, &errOut); code != 0 {
		t.Fatalf("gcsvet ./... exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", out.String())
	}
}
