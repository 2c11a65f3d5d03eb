package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// OneConstructor reports ddp.NewReplica or fsdp.New named anywhere but
// the package that turns a strategy.Spec into a replica: a second place
// that pairs a constructor with its options is a second copy of the
// run's configuration, free to drop or forward a field differently.
// A function named — called, or taken as a value to call later — counts,
// and so does an alias of one; a function of another package that
// happens to be called New does not. Packages whose path ends in
// benchmark are exempt by name: the benchmark harness is frozen, so
// that its figures compare across commits, and builds through ddp.New
// and fsdp.New until it moves onto strategy.Build.
var OneConstructor = &Analyzer{
	Name: "oneconstructor",
	Doc:  "only internal/strategy names ddp.NewReplica or fsdp.New (benchmark/ is exempt while frozen)",
	Run:  runOneConstructor,
}

// replicaConstructors maps each package that builds a replica to the
// function that does.
var replicaConstructors = map[string]string{"internal/ddp": "NewReplica", "internal/fsdp": "New"}

func runOneConstructor(pkg *Package) []Finding {
	path := "/" + pkg.Path
	if strings.HasSuffix(path, "/internal/strategy") || strings.HasSuffix(path, "/benchmark") {
		return nil
	}
	return constructorUses(pkg)
}

// constructorUses reports every identifier of pkg that names a replica
// constructor.
func constructorUses(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Signature().Recv() != nil {
				return true
			}
			for suffix, name := range replicaConstructors {
				if fn.Name() == name && pkgHasSuffix(fn, suffix) {
					out = append(out, pkg.finding("oneconstructor", id,
						"%s.%s named outside internal/strategy; build the replica with strategy.Build", fn.Pkg().Name(), name))
				}
			}
			return true
		})
	}
	return out
}
