package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Callers holds the library's exports to what programs use. Under
// internal/, an exported struct field that no non-test file of the
// module sets is a knob only tests turn; in comm, transport, reduce and
// store an exported func or type that no non-test file outside its
// package names is an export nothing needs. An identifier starting with
// Testing in non-test code is a test-only knob. It sees every loaded
// package at once; Reach judges what is reached at all.
var Callers = &Analyzer{
	Name:   "callers",
	Doc:    "an exported field under internal/ has a non-test setter; comm, transport, reduce and store export a func or type only for another package; no Testing* knob in non-test code",
	Module: runCallers,
}

// outsideCallers are the packages whose exported funcs and types need a
// caller outside the package.
var outsideCallers = []string{"internal/comm", "internal/transport", "internal/reduce", "internal/store"}

var testingKnob = regexp.MustCompile(`^Testing[A-Z]`)

func runCallers(pkgs []*Package) []Finding {
	u := newUsage(pkgs)
	var out []Finding
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && testingKnob.MatchString(id.Name) {
					out = append(out, pkg.finding("callers", id, "%s is a test-only knob in non-test code; reach the seam from the test instead", id.Name))
				}
				return true
			})
		}
		if !strings.Contains(pkg.Path, "/internal/") || !u.imported[pkg.Path] {
			continue
		}
		outside := false
		for _, s := range outsideCallers {
			outside = outside || hasPathSuffix(pkg.Path, s)
		}
		report := func(obj types.Object, name, format string) {
			out = append(out, Finding{Pos: pkg.Fset.Position(obj.Pos()), Analyzer: "callers", Message: fmt.Sprintf(format, pkg.Types.Name()+"."+name)})
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok {
				u.checkFields(tn, report)
			}
			if users := u.users[obj]; obj.Exported() && outside && !isVarOrConst(obj) && len(users) == 1 && users[pkg.Types] {
				report(obj, name, "%s is exported but no non-test file outside its package names it; unexport it")
			}
		}
	}
	return out
}

// isVarOrConst reports whether obj is a var or a const, which the
// outside row does not hold.
func isVarOrConst(obj types.Object) bool {
	switch obj.(type) {
	case *types.Var, *types.Const:
		return true
	}
	return false
}

// usage is what the module's non-test files name and set.
type usage struct {
	users    map[types.Object]map[*types.Package]bool // declared object -> packages naming it
	set      map[*types.Var]bool                      // struct fields some file sets
	imported map[string]bool                          // packages some loaded package imports
}

// newUsage walks pkgs once: what they name and set, and what they
// import.
func newUsage(pkgs []*Package) *usage {
	u := &usage{
		users:    map[types.Object]map[*types.Package]bool{},
		set:      map[*types.Var]bool{},
		imported: map[string]bool{},
	}
	for _, pkg := range pkgs {
		for _, imp := range pkg.Types.Imports() {
			u.imported[imp.Path()] = true
		}
		for _, obj := range pkg.Info.Uses {
			obj = origin(obj)
			if u.users[obj] == nil {
				u.users[obj] = map[*types.Package]bool{}
			}
			u.users[obj][pkg.Types] = true
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				u.markSets(pkg.Info, n)
				return true
			})
		}
	}
	return u
}

// origin is the declared object behind an instantiated generic one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markSets records the fields n sets: every field of an unkeyed struct
// literal, and a field assigned, incremented or whose address is taken.
func (u *usage) markSets(info *types.Info, n ast.Node) {
	var targets []ast.Expr
	switch n := n.(type) {
	case *ast.CompositeLit:
		st, ok := typeOf(info, n).Underlying().(*types.Struct)
		for i, elt := range n.Elts {
			kv, keyed := elt.(*ast.KeyValueExpr)
			switch {
			case !ok:
			case keyed:
				if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					u.set[f.Origin()] = true
				}
			default:
				u.set[st.Field(i).Origin()] = true
			}
		}
	case *ast.AssignStmt:
		targets = n.Lhs
	case *ast.IncDecStmt:
		targets = []ast.Expr{n.X}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			targets = []ast.Expr{n.X}
		}
	}
	for _, t := range targets {
		if sel, ok := ast.Unparen(t).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				u.set[s.Obj().(*types.Var).Origin()] = true
			}
		}
	}
}

// typeOf is e's type, through one pointer: the T of an elided &T{}.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	t := info.TypeOf(e)
	if t == nil {
		return types.Typ[types.Invalid]
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// checkFields reports an exported type's exported struct fields that
// nothing sets.
func (u *usage) checkFields(tn *types.TypeName, report func(obj types.Object, name, format string)) {
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok || tn.IsAlias() || !tn.Exported() {
		return
	}
	for i := range st.NumFields() {
		f := st.Field(i)
		if f.Exported() && !f.Embedded() && !u.set[f] {
			report(f, tn.Name()+"."+f.Name(), "%s is exported but no non-test file sets it; delete the field")
		}
	}
}
