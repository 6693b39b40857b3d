package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureExports caches one `go list -export` run for every dependency the
// fixture packages import, shared across all fixture tests.
var fixtureExports struct {
	once sync.Once
	m    map[string]string
	err  error
}

func exportsForFixtures(t *testing.T) map[string]string {
	t.Helper()
	fixtureExports.once.Do(func() {
		fixtureExports.m, fixtureExports.err = ExportData(".",
			"fmt", "time", "math/rand", "sort",
			"gcsteering", "gcsteering/internal/obs", "gcsteering/internal/sim")
	})
	if fixtureExports.err != nil {
		t.Fatalf("loading fixture export data: %v", fixtureExports.err)
	}
	return fixtureExports.m
}

// loadFixture parses and type-checks one testdata package under the given
// import path (the path matters: the analyzers' allowlists key off it).
func loadFixture(t *testing.T, dir, importPath string) *Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	files, err := ParseDir(fset, dir, names)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	pkg, err := CheckSource(fset, importPath, dir, files, NewImporter(fset, exportsForFixtures(t)))
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// collectWants scans the fixture sources for `// want "regexp"` comments,
// keyed by file:line.
func collectWants(t *testing.T, dir string) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", path, i+1)
				out[key] = append(out[key], m[1])
			}
		}
	}
	return out
}

// TestFixtures drives every analyzer over its testdata packages and checks
// the reported findings against the `want` annotations: every finding must
// be wanted at its exact file:line, every want must fire, and no finding
// may be reported twice (a duplicate would otherwise hide behind one want).
func TestFixtures(t *testing.T) {
	tests := []struct {
		name     string
		analyzer string
		path     string // import path the fixture is loaded under
		dir      string
	}{
		{"nodeterm-violations", "nodeterm", "fixtures/nodeterm/bad", "testdata/src/nodeterm/bad"},
		{"nodeterm-cmd-allowlist", "nodeterm", "gcsteering/cmd/fixturecmd", "testdata/src/nodeterm/allowedcmd"},
		{"nodeterm-harness-allowlist", "nodeterm", "gcsteering/internal/harness", "testdata/src/nodeterm/allowedharness"},
		{"maporder-violations", "maporder", "fixtures/maporder/bad", "testdata/src/maporder/bad"},
		{"nilrecv-methods", "nilrecv", "fixtures/internal/obs", "testdata/src/nilrecv/obs"},
		{"nilrecv-callers", "nilrecv", "fixtures/caller", "testdata/src/nilrecv/caller"},
		{"units-violations", "units", "fixtures/units/bad", "testdata/src/units/bad"},
		{"units-malformed-directive", "units", "fixtures/units/directive", "testdata/src/units/directive"},
		{"hotalloc-reachability", "hotalloc", "fixtures/hotalloc/bad", "testdata/src/hotalloc/bad"},
		{"inert-guards", "inert", "fixtures/inert/bad", "testdata/src/inert/bad"},
		{"suppaudit-stale", "suppaudit", "fixtures/suppaudit/bad", "testdata/src/suppaudit/bad"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			analyzers, err := ByName(tc.analyzer)
			if err != nil {
				t.Fatal(err)
			}
			pkg := loadFixture(t, tc.dir, tc.path)
			findings := Run([]*Package{pkg}, analyzers)
			wants := collectWants(t, tc.dir)
			matched := make(map[string][]bool, len(wants))
			for k, ws := range wants {
				matched[k] = make([]bool, len(ws))
			}
			seen := make(map[string]bool, len(findings))
			for _, f := range findings {
				if s := f.String(); seen[s] {
					t.Errorf("duplicate finding: %s", s)
				} else {
					seen[s] = true
				}
				key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
				ok := false
				for i, w := range wants[key] {
					if regexp.MustCompile(w).MatchString(f.Message) {
						matched[key][i] = true
						ok = true
					}
				}
				if !ok {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for k, ws := range wants {
				for i, w := range ws {
					if !matched[k][i] {
						t.Errorf("%s: want %q never reported", k, w)
					}
				}
			}
		})
	}
}

// TestRepoIsClean runs the full suite over the real repository, the same
// invocation CI uses: a gcsvet failure in CI must mean a genuine new
// violation, never fixture drift.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export over the whole module")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("loaded only %d packages; pattern ./... should cover the module", len(pkgs))
	}
	for _, f := range Run(pkgs, All()) {
		t.Errorf("repo not gcsvet-clean: %s", f)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 7, nil", len(all), err)
	}
	two, err := ByName("units, nodeterm")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset = %d analyzers, err %v; want 2, nil", len(two), err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) should fail")
	}
}

func TestUnitOf(t *testing.T) {
	cases := map[string]string{
		"latUs":       "Us",
		"RebuildMBps": "MBps",
		"diskPages":   "Pages",
		"totalBytes":  "Bytes",
		"pages":       "Pages",
		"bytes":       "Bytes",
		"status":      "", // lowercase "us" tail must not read as a unit
		"bonus":       "",
		"pageSize":    "",
		"":            "",
	}
	for name, want := range cases {
		if got := unitOf(name); got != want {
			t.Errorf("unitOf(%q) = %q, want %q", name, got, want)
		}
	}
}
