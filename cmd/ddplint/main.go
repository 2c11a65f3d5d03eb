// Command ddplint is the project's static-analysis gate: it loads every
// package in the module with the pure-stdlib loader (go/parser +
// go/types with the source importer — no x/tools, no dependencies) and
// runs the project-specific analyzer suite from internal/lint over
// them.
//
// Usage:
//
//	go run ./cmd/ddplint ./...
//
// Each finding prints as
//
//	file:line: [analyzer] message
//
// and any unsuppressed finding makes the command exit non-zero, which
// is how CI blocks on it. An intentional exception is declared next to
// the offending line with
//
//	//ddplint:ignore <analyzer> <reason>
//
// and counted in the summary. Pass package directory patterns (or
// ./...) to narrow which packages' findings are reported; the whole
// module is always loaded and analyzed, so cross-package types resolve
// and reach walks from every root.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzer suite and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fatal(err)
	}
	keep := map[string]bool{}
	for _, p := range filterPackages(pkgs, wd, flag.Args()) {
		keep[p.Dir] = true
	}

	// Every analyzer sees the whole module, so a module-wide rule counts
	// uses outside the patterns; only findings in the patterns' packages
	// are reported.
	res := lint.Run(pkgs, lint.All())
	var findings []lint.Finding
	for _, f := range res.Findings {
		if keep[filepath.Dir(f.Pos.Filename)] {
			findings = append(findings, f)
		}
	}
	for _, f := range findings {
		rel := f.Pos.Filename
		if r, err := filepath.Rel(wd, rel); err == nil && !strings.HasPrefix(r, "..") {
			rel = r
		}
		fmt.Printf("%s:%d: [%s] %s\n", rel, f.Pos.Line, f.Analyzer, f.Message)
	}
	fmt.Printf("ddplint: %d packages, %d analyzers, %d findings, %d ignored by pragma\n",
		len(keep), len(lint.All()), len(findings), res.Ignored)
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// filterPackages narrows pkgs to those matching the command-line
// patterns, resolved relative to the working directory. "./..." (or no
// pattern) keeps everything under the working directory; "dir" keeps
// that package; "dir/..." keeps the subtree.
func filterPackages(pkgs []*lint.Package, wd string, patterns []string) []*lint.Package {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var keep []*lint.Package
	for _, p := range pkgs {
		for _, pat := range patterns {
			if matchPattern(p.Dir, wd, pat) {
				keep = append(keep, p)
				break
			}
		}
	}
	return keep
}

func matchPattern(pkgDir, wd, pat string) bool {
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive = true
		pat = rest
		if pat == "" {
			pat = "."
		}
	}
	base := pat
	if !filepath.IsAbs(base) {
		base = filepath.Join(wd, base)
	}
	rel, err := filepath.Rel(base, pkgDir)
	if err != nil {
		return false
	}
	if rel == "." {
		return true
	}
	return recursive && !strings.HasPrefix(rel, "..")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddplint:", err)
	os.Exit(2)
}
