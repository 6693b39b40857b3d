// Package lint is the simulator's custom static-analysis suite (the
// engine behind cmd/gcsvet). The Go compiler and the stock vet passes
// cannot see the invariants this repository's evaluation rests on —
// simulated time comes only from sim.Engine, randomness only from seeded
// *rand.Rand streams derived from Config.Seed, map iteration order never
// leaks into event schedules or emitted results, and *obs.Tracer stays a
// zero-cost nil receiver — so this package encodes them as analyzers built
// on nothing but go/parser and go/types (package graph discovered via
// `go list -json`; no dependencies outside the standard library).
//
// Each analyzer reports findings as `file:line: analyzer: message`. A
// finding can be suppressed at a sanctioned site with a directive comment
// on the offending line or the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory: an allow without one is itself reported, so
// every suppression in the tree documents why the site is sanctioned.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named rule set. Intraprocedural analyzers set Run and
// are invoked once per package; interprocedural ones set RunProgram and
// are invoked once with the whole-module Program (call graph included).
// Exactly one of the two must be set.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(p *Package) []Finding
	RunProgram func(prog *Program) []Finding
}

// All returns the full gcsvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Nodeterm(), Maporder(), Nilrecv(), Units(), Hotalloc(), Inert(), Suppaudit()}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	line     int
	col      int
	analyzer string
	reason   string
}

const directivePrefix = "lint:allow"

// directives extracts the package's allow comments, reporting malformed
// ones (missing analyzer or reason) as findings so suppressions cannot
// silently rot.
func directives(p *Package) (map[string][]allowDirective, []Finding) {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	out := make(map[string][]allowDirective)
	var bad []Finding
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				pos := p.Fset.Position(c.Slash)
				fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
				if len(fields) < 2 || !known[fields[0]] {
					bad = append(bad, Finding{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed directive: want //lint:allow <analyzer> <reason>",
					})
					continue
				}
				out[pos.Filename] = append(out[pos.Filename], allowDirective{
					line:     pos.Line,
					col:      pos.Column,
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return out, bad
}

// suppressed reports whether an allow for the finding's analyzer sits on
// the finding's line or the line directly above it.
func suppressed(f Finding, dirs map[string][]allowDirective) bool {
	for _, d := range dirs[f.Pos.Filename] {
		if d.analyzer == f.Analyzer && (d.line == f.Pos.Line || d.line == f.Pos.Line-1) {
			return true
		}
	}
	return false
}

// runAnalyzer invokes one analyzer over the whole program, routing to
// its package-level or program-level entry point.
func runAnalyzer(a *Analyzer, prog *Program) []Finding {
	if a.RunProgram != nil {
		return a.RunProgram(prog)
	}
	var out []Finding
	for _, p := range prog.Pkgs {
		out = append(out, a.Run(p)...)
	}
	return out
}

// Run executes the analyzers over every package and returns the surviving
// findings sorted by position. Directive suppression is keyed by file, so
// program-level findings are matched against the directives of whichever
// package owns the flagged file.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	prog := NewProgram(pkgs)
	dirs := make(map[string][]allowDirective)
	var out []Finding
	for _, p := range pkgs {
		d, bad := directives(p)
		out = append(out, bad...)
		files := make([]string, 0, len(d))
		for file := range d {
			files = append(files, file)
		}
		sort.Strings(files)
		for _, file := range files {
			dirs[file] = append(dirs[file], d[file]...)
		}
	}
	for _, a := range analyzers {
		for _, f := range runAnalyzer(a, prog) {
			if !suppressed(f, dirs) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// exprIdentName extracts the name an expression is known by, for unit
// tagging and diagnostics: an identifier, the field of a selector, or the
// callee name of a call. Empty when the expression has no usable name.
func exprIdentName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.CallExpr:
		return exprIdentName(e.Fun)
	case *ast.ParenExpr:
		return exprIdentName(e.X)
	}
	return ""
}
