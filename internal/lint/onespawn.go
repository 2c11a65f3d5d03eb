package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// OneSpawn reports cmd/ddptrain naming os/exec's Command or
// CommandContext anywhere but its one spawn site. Every child process,
// training rank or elastic worker, starts through fleet.spawn, whose
// command line is derived from the flag binding and whose kill-and-reap
// on an early return covers it; a second use is a hand-written launcher
// growing back, and none means the spawn site went away. A function
// named — called, or taken as a value to call later — counts, through
// any import name; a function of another package called Command does
// not.
var OneSpawn = &Analyzer{
	Name: "onespawn",
	Doc:  "cmd/ddptrain names os/exec.Command or CommandContext exactly once outside tests",
	Run:  runOneSpawn,
}

func runOneSpawn(pkg *Package) []Finding {
	if !strings.HasSuffix("/"+pkg.Path, "/cmd/ddptrain") {
		return nil
	}
	var uses []*ast.Ident
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "os/exec" &&
					(fn.Name() == "Command" || fn.Name() == "CommandContext") {
					uses = append(uses, id)
				}
			}
			return true
		})
	}
	switch len(uses) {
	case 0:
		return []Finding{pkg.finding("onespawn", pkg.Files[0].Name, "cmd/ddptrain names no os/exec.Command; start child processes at its one spawn site")}
	case 1:
		return nil
	}
	out := make([]Finding, len(uses))
	for i, id := range uses {
		out[i] = pkg.finding("onespawn", id, "os/exec.%s named %d times in cmd/ddptrain; start every child process at its one spawn site", id.Name, len(uses))
	}
	return out
}
