package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// OneAlign reports a module's tensors broadcast outside
// internal/replica's core.go, where replica.Align and replica.Core's
// buffer re-sync write it once: a comm Broadcast of an nn.Parameter's
// Value.Data() or an nn.Buffer's Data.Data() in any other file, in any
// package and whatever the variable is called, is a private copy of the
// replica lifecycle growing back. A Broadcast that is not comm's, or of
// other storage, is not reported.
var OneAlign = &Analyzer{
	Name: "onealign",
	Doc:  "only internal/replica's core.go broadcasts a module's parameters or buffers",
	Run:  runOneAlign,
}

func runOneAlign(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		if strings.HasSuffix("/"+pkg.Path, "/internal/replica") && filepath.Base(pkg.Fset.Position(file.Pos()).Filename) == "core.go" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := calleeOf(pkg.Info, call)
			if what := moduleStorage(pkg.Info, call.Args[0]); what != "" && fn != nil && fn.Name() == "Broadcast" && pkgHasSuffix(fn, "internal/comm") {
				out = append(out, pkg.finding("onealign", call, "broadcasts %s outside internal/replica/core.go; align replicas through replica.Align", what))
			}
			return true
		})
	}
	return out
}

// moduleStorage names what arg is the storage of: "a parameter" for
// x.Value.Data() with x an nn.Parameter, "a buffer" for x.Data.Data()
// with x an nn.Buffer, and "" for anything else.
func moduleStorage(info *types.Info, arg ast.Expr) string {
	call, _ := ast.Unparen(arg).(*ast.CallExpr)
	if call == nil {
		return ""
	}
	data, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if data == nil || data.Sel.Name != "Data" {
		return ""
	}
	field, _ := ast.Unparen(data.X).(*ast.SelectorExpr)
	s := info.Selections[field]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	recv := types.Unalias(s.Recv())
	if p, ok := recv.(*types.Pointer); ok {
		recv = types.Unalias(p.Elem())
	}
	named, _ := recv.(*types.Named)
	if named == nil || !pkgHasSuffix(named.Obj(), "internal/nn") {
		return ""
	}
	return map[string]string{"Parameter.Value": "a parameter", "Buffer.Data": "a buffer"}[named.Obj().Name()+"."+field.Sel.Name]
}
