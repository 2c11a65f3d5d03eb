package lint

import (
	"go/ast"
	"go/types"
)

// Atomic64Align bans the function-form 64-bit sync/atomic operations.
// On GOARCH=386 (and other 32-bit targets) they fault at runtime unless
// their operand is 8-byte aligned, and struct layout only guarantees
// that for the first word of an allocation — a class of bug invisible on
// the 64-bit machines that run the tests. The typed atomic.Int64 and
// atomic.Uint64 carry an alignment marker the compiler honours on every
// GOARCH, so a tree that uses only them is aligned by construction and
// needs no layout check.
var Atomic64Align = &Analyzer{
	Name: "atomic64align",
	Doc:  "64-bit atomics use the self-aligning atomic.Int64/Uint64 types, never the function forms",
	Run:  runAtomic64Align,
}

// atomic64Funcs maps each banned sync/atomic function to the typed
// atomic that replaces it.
var atomic64Funcs = map[string]string{
	"AddInt64": "Int64", "AddUint64": "Uint64",
	"LoadInt64": "Int64", "LoadUint64": "Uint64",
	"StoreInt64": "Int64", "StoreUint64": "Uint64",
	"SwapInt64": "Int64", "SwapUint64": "Uint64",
	"CompareAndSwapInt64": "Int64", "CompareAndSwapUint64": "Uint64",
}

// runAtomic64Align flags every use of a banned function, whether it is
// called or taken as a function value.
func runAtomic64Align(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pkg.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || atomic64Funcs[fn.Name()] == "" {
				return true
			}
			out = append(out, pkg.finding("atomic64align", id,
				"atomic.%s needs an 8-aligned operand, which 32-bit struct layout does not guarantee; declare the word as atomic.%s instead",
				fn.Name(), atomic64Funcs[fn.Name()]))
			return true
		})
	}
	return out
}
