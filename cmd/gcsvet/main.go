// Command gcsvet runs the repository's custom static-analysis suite:
// seven analyzers (nodeterm, maporder, nilrecv, units, hotalloc, inert,
// suppaudit) that enforce the simulator's determinism, hot-path
// allocation, and zero-cost-observability invariants. It is built on the
// standard library alone — packages are discovered with `go list -json`,
// parsed with go/parser, and type-checked with go/types against compiler
// export data; the interprocedural analyzers run on a CHA-style call
// graph assembled from the same data.
//
// Usage:
//
//	go run ./cmd/gcsvet [-analyzers name,name] [-list] [packages]
//
// Packages default to ./... . Findings print as
// `file:line:col: analyzer: message` and any finding makes the exit status
// non-zero. Suppress a sanctioned site with a
// `//lint:allow <analyzer> <reason>` comment on the line or the line above
// (suppaudit flags the directive itself once it stops matching anything).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gcsteering/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// run is the testable body of main. dir is where go list resolves the
// package patterns (the working directory for the real CLI).
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcsvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := lint.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings := lint.Run(pkgs, analyzers)
	cwd, _ := filepath.Abs(dir)
	for _, f := range findings {
		if r, err := filepath.Rel(cwd, f.Pos.Filename); err == nil {
			f.Pos.Filename = r
		}
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "gcsvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
