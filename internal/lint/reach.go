package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"regexp"
	"slices"
	"strings"
)

// Reach holds the library to what programs run: a func, method, type,
// var or const declared under internal/ that no code reached from a root
// of reachRoots names is a finding. It is a rapid type analysis over the
// loaded packages' go/types data: a method is reached when reached code
// calls it, or calls a method of that name through an interface that a
// live type meets, where a live type is one reached code converts to an
// interface; a method that meets an interface declared outside the module
// (error, fmt.Stringer, a marshaler) counts when its type is live. An
// exception is a //ddplint:ignore reach pragma naming its reader; what the
// excused declaration reaches is kept with it.
//
// The walk also answers the callers rows, from the uses it records: an
// exported field of an exported type under internal/ that no reached code
// sets is a knob only tests turn; in comm, transport, reduce and store an
// exported func or type that no reached code outside its package names is
// an export nothing needs. With no root program loaded neither reach nor
// these rows report anything; an identifier starting with Testing in
// non-test code is a test-only knob either way.
var Reach = &Analyzer{
	Name:   "reach",
	Doc:    "every func, method, type, var and const under internal/ is reached from a program root (rapid type analysis); callers: reached code sets every exported field and names comm, transport, reduce and store's exported funcs and types from outside; no Testing* knob in non-test code",
	Rules:  []string{"callers"},
	Module: runReach,
}

// outsideCallers are the packages whose exported funcs and types need a
// caller outside the package.
var outsideCallers = []string{"internal/comm", "internal/transport", "internal/reduce", "internal/store"}

var testingKnob = regexp.MustCompile(`^Testing[A-Z]`)

// rootKind is what of a root package starts the walk.
type rootKind int

const (
	rootProgram rootKind = iota // main, and the init funcs and var initializers of what it imports
	rootFiles                   // every name its files use
	rootExports                 // its exported API
)

// reachRoots are the packages, by path suffix, whose code something
// outside the library runs.
var reachRoots = []struct {
	path, why string
	kind      rootKind
}{
	{"cmd/ddptrain", "the trainer", rootProgram},
	{"cmd/ddpbench", "the paper's tables and figures", rootProgram},
	{"cmd/ddplint", "this gate", rootProgram},
	{"examples/checkpoint", "TestResumeIsExact holds what it prints", rootProgram},
	{"examples/elastic", "TestActiveReplicasAgree holds what it prints", rootProgram},
	{"examples/mnist", "TestBothArmsConverge holds what it prints", rootProgram},
	{"examples/paramavg", "TestParameterAveragingDrifts holds what it prints", rootProgram},
	{"examples/quickstart", "TestRanksEndIdentical holds what it prints", rootProgram},
	{"examples/unusedparams", "TestUnusedParameters holds what it prints", rootProgram},
	{"examples/zero1", "TestShardedOptimizerIsFree holds what it prints", rootProgram},
	{"benchmark", "BENCHMARK.json freezes its files, so what they name stays", rootFiles},
	{"internal/chaos", "its corpus is the tier-1 test of elastic recovery", rootExports},
}

func runReach(pkgs []*Package) []Finding {
	out := testingKnobs(pkgs)
	r := newReacher(pkgs)
	if !r.root(pkgs) {
		return out
	}
	r.drain()
	before := maps.Clone(r.reached)
	pragmas := make(pragmaSet)
	for _, pkg := range pkgs {
		collectPragmas(pkg, pragmas)
	}
	excused := map[types.Object]bool{}
	for _, d := range r.candidates() {
		if pragmas.suppresses(d.finding()) {
			excused[d.obj] = true
			r.mark(d.obj, nil)
		}
	}
	r.drain()
	for _, d := range r.candidates() {
		if !r.reached[d.obj] || excused[d.obj] && !before[d.obj] {
			out = append(out, d.finding())
		}
		out = append(out, r.callers(d)...)
	}
	return out
}

// testingKnobs are the callers findings on every identifier of the
// loaded packages that starts with Testing.
func testingKnobs(pkgs []*Package) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		for _, ids := range []map[*ast.Ident]types.Object{pkg.Info.Defs, pkg.Info.Uses} {
			for id := range ids {
				if testingKnob.MatchString(id.Name) {
					out = append(out, pkg.finding("callers", id, "%s is a test-only knob in non-test code; reach the seam from the test instead", id.Name))
				}
			}
		}
	}
	return out
}

// callers are d's findings of the callers rows: an exported field of an
// exported type that no reached code sets, and in outsideCallers an
// exported func or type that reached code names only in its package.
func (r *reacher) callers(d decl) []Finding {
	var out []Finding
	report := func(obj types.Object, name, format string) {
		out = append(out, Finding{Pos: d.pkg.Fset.Position(obj.Pos()), Analyzer: "callers", Message: fmt.Sprintf(format, d.pkg.Types.Name()+"."+name)})
	}
	tn, isType := d.obj.(*types.TypeName)
	if st, ok := d.obj.Type().Underlying().(*types.Struct); ok && isType && !tn.IsAlias() && tn.Exported() {
		for f := range st.Fields() {
			if f.Exported() && !f.Embedded() && !r.sets[f] {
				report(f, tn.Name()+"."+f.Name(), "%s is exported but no reached code sets it; delete the field")
			}
		}
	}
	_, isFunc := d.obj.(*types.Func)
	if (isType || isFunc && recvOf(d.obj) == nil) && d.obj.Exported() && r.reached[d.obj] && !r.named[d.obj] &&
		slices.ContainsFunc(outsideCallers, func(s string) bool { return hasPathSuffix(d.pkg.Path, s) }) {
		report(d.obj, d.obj.Name(), "%s is exported but no reached code outside its package names it; unexport it")
	}
	return out
}

// reacher is the walk's state.
type reacher struct {
	decls    map[types.Object]decl
	held     map[*Package]bool // under internal/ and imported by a loaded package
	reached  map[types.Object]bool
	queue    []decl
	live     map[types.Type]bool
	lives    []*types.Named          // live types declared in the module
	calls    map[string][]types.Type // interfaces reached code calls a method of, by its name
	external map[string][]types.Type // interfaces declared outside the module, by method name
	named    map[types.Object]bool   // named by reached code outside the object's package
	sets     map[*types.Var]bool     // struct fields reached code sets
}

// decl is a package-level declaration: the object and its node.
type decl struct {
	pkg  *Package
	obj  types.Object
	node ast.Node
}

// finding reports d unreached, named pkg.Name or pkg.Type.Method.
func (d decl) finding() Finding {
	name := d.obj.Name()
	if owner := ownerType(d.obj); owner != nil {
		name = owner.Name() + "." + name
	}
	return Finding{Pos: d.pkg.Fset.Position(d.obj.Pos()), Analyzer: "reach", Message: fmt.Sprintf(
		"no program root reaches %s.%s; delete it, or excuse it with a pragma naming its reader", d.pkg.Types.Name(), name)}
}

func newReacher(pkgs []*Package) *reacher {
	r := &reacher{decls: map[types.Object]decl{}, held: map[*Package]bool{}, reached: map[types.Object]bool{},
		live: map[types.Type]bool{}, calls: map[string][]types.Type{}, external: map[string][]types.Type{},
		named: map[types.Object]bool{}, sets: map[*types.Var]bool{}}
	imported := map[string]bool{}
	for _, pkg := range pkgs {
		for _, d := range declsOf(pkg) {
			r.decls[d.obj] = d
		}
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
	}
	for _, pkg := range pkgs {
		r.held[pkg] = strings.Contains(pkg.Path, "/internal/") && imported[pkg.Path]
	}
	seen := map[*types.Package]bool{}
	var scan func(p *types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			scan(imp)
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && r.decls[tn].obj == nil {
				r.addExternal(tn)
			}
		}
	}
	r.addExternal(types.Universe.Lookup("error").(*types.TypeName))
	for _, pkg := range pkgs {
		scan(pkg.Types)
	}
	return r
}

// addExternal indexes tn, when it is an interface, by its methods' names.
func (r *reacher) addExternal(tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() || named.TypeParams().Len() > 0 || !types.IsInterface(named) {
		return
	}
	it := named.Underlying().(*types.Interface)
	for i := range it.NumMethods() {
		r.external[it.Method(i).Name()] = append(r.external[it.Method(i).Name()], named)
	}
}

// declsOf lists pkg's package-level declarations but init funcs: funcs
// and methods, types and the methods of its interfaces, vars and consts.
func declsOf(pkg *Package) []decl {
	var out []decl
	add := func(id *ast.Ident, node ast.Node) {
		if obj := pkg.Info.Defs[id]; obj != nil && id.Name != "_" {
			out = append(out, decl{pkg, obj, node})
		}
	}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fd.Recv != nil || fd.Name.Name != "init" {
					add(fd.Name, fd)
				}
				continue
			}
			for _, spec := range d.(*ast.GenDecl).Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
					if it, ok := s.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, id := range m.Names {
								add(id, m)
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
					}
				}
			}
		}
	}
	return out
}

// candidates are the held packages' declarations a finding can name: a
// method only when its type is reached, so a dead type is one finding.
func (r *reacher) candidates() []decl {
	var out []decl
	for _, d := range r.decls {
		if owner := ownerType(d.obj); r.held[d.pkg] && (owner == nil || r.reached[owner]) {
			out = append(out, d)
		}
	}
	return out
}

// recvOf is the receiver type of a method or an interface's method.
func recvOf(obj types.Object) types.Type {
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		return fn.Signature().Recv().Type()
	}
	return nil
}

// ownerType is the declared type a method belongs to.
func ownerType(obj types.Object) *types.TypeName {
	t := recvOf(obj)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// root marks what reachRoots start from and reports whether a root
// program is loaded.
func (r *reacher) root(pkgs []*Package) bool {
	byPath := map[string]*Package{}
	for _, pkg := range pkgs {
		byPath[pkg.Path] = pkg
	}
	program, inits := false, map[*Package]bool{}
	var imports func(pkg *Package)
	imports = func(pkg *Package) {
		if pkg == nil || inits[pkg] {
			return
		}
		inits[pkg] = true
		for _, imp := range pkg.Types.Imports() {
			imports(byPath[imp.Path()])
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "init" {
					r.walk(pkg, fd)
				} else if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						if !blank(spec.(*ast.ValueSpec)) {
							r.walk(pkg, spec)
						}
					}
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, row := range reachRoots {
			if !hasPathSuffix(pkg.Path, row.path) {
				continue
			}
			imports(pkg)
			switch row.kind {
			case rootProgram:
				program = true
				r.mark(pkg.Types.Scope().Lookup("main"), nil)
			case rootFiles:
				for _, file := range pkg.Files {
					r.walk(pkg, file)
				}
			case rootExports:
				for _, d := range declsOf(pkg) {
					if d.obj.Exported() {
						r.mark(d.obj, nil)
					}
				}
			}
		}
	}
	return program
}

// blank reports whether every name s declares is _: the values it
// stores are dropped, so an assertion var _ I = (*T)(nil) reaches nothing.
func blank(s *ast.ValueSpec) bool {
	return !slices.ContainsFunc(s.Names, func(id *ast.Ident) bool { return id.Name != "_" })
}

// mark reaches obj, named by code of package by (nil where no code
// names it): its declaration is walked, and a method of an interface
// dispatches to every live type that meets the interface.
func (r *reacher) mark(obj types.Object, by *types.Package) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	if obj == nil {
		return
	}
	if by != nil && by != obj.Pkg() {
		r.named[obj] = true
	}
	if r.reached[obj] {
		return
	}
	r.reached[obj] = true
	if d, ok := r.decls[obj]; ok {
		r.queue = append(r.queue, d)
	}
	if iface := recvOf(obj); iface != nil && types.IsInterface(iface) {
		r.calls[obj.Name()] = append(r.calls[obj.Name()], iface)
		for _, t := range r.lives {
			r.dispatch(t, iface, obj.Name())
		}
	}
}

// dispatch reaches t's method name when t, or a pointer to it, meets
// iface.
func (r *reacher) dispatch(t *types.Named, iface types.Type, name string) {
	ptr := types.NewPointer(t)
	if types.Implements(ptr, iface.Underlying().(*types.Interface)) {
		m, _, _ := types.LookupFieldOrMethod(ptr, true, t.Obj().Pkg(), name)
		r.mark(m, nil)
	}
}

// drain walks every reached declaration not walked yet.
func (r *reacher) drain() {
	for len(r.queue) > 0 {
		d := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.walk(d.pkg, d.node)
	}
}

// walk marks what node names, records the fields it sets (a keyed or
// unkeyed literal's, a field assigned, incremented or whose address is
// taken), and makes live what it converts to an interface: an argument,
// an assigned, initial or returned value, or a composite literal's
// element.
func (r *reacher) walk(pkg *Package, node ast.Node) {
	info := pkg.Info
	var stack []ast.Node
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		var to []types.Type
		var values []ast.Expr
		switch n := n.(type) {
		case *ast.Ident:
			r.mark(info.Uses[n], pkg.Types)
		case *ast.CallExpr:
			to, values = params(info, n), n.Args
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				to = append(to, info.TypeOf(e))
				r.set(info, e)
			}
			values = n.Rhs
		case *ast.IncDecStmt:
			r.set(info, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.set(info, n.X)
			}
		case *ast.ValueSpec:
			for range n.Names {
				to = append(to, info.TypeOf(n.Type))
			}
			values = n.Values
		case *ast.ReturnStmt:
			to, values = results(info, stack), n.Results
		case *ast.CompositeLit:
			t := typeOf(info, n).Underlying()
			for i, elt := range n.Elts {
				field, slot := slotOf(info, t, i, elt)
				if field != nil {
					r.sets[field.Origin()] = true
				}
				to = append(to, slot)
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				values = append(values, elt)
			}
		}
		for i, t := range valueTypes(info, values) {
			if i < len(to) && to[i] != nil && t != nil && types.IsInterface(to[i]) && !types.IsInterface(t) {
				r.convert(t)
			}
		}
		return true
	})
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

// set records the field e selects, if it selects one, as set.
func (r *reacher) set(info *types.Info, e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			r.sets[s.Obj().(*types.Var).Origin()] = true
		}
	}
}

// params are the types a call's arguments land in: a conversion's
// target, or the parameters, the variadic one spread over the rest.
func params(info *types.Info, call *ast.CallExpr) []types.Type {
	if tv := info.Types[call.Fun]; tv.IsType() {
		return []types.Type{tv.Type}
	}
	sig, ok := typeOf(info, call.Fun).Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	out := tupleTypes(sig.Params())
	if sig.Variadic() && !call.Ellipsis.IsValid() {
		last := out[len(out)-1].(*types.Slice).Elem()
		for out = out[:len(out)-1]; len(out) < len(call.Args); {
			out = append(out, last)
		}
	}
	return out
}

// results are the result types of the innermost function on stack.
func results(info *types.Info, stack []ast.Node) []types.Type {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return tupleTypes(info.Defs[f.Name].Type().(*types.Signature).Results())
		case *ast.FuncLit:
			return tupleTypes(info.TypeOf(f).(*types.Signature).Results())
		}
	}
	return nil
}

// slotOf is where a literal of type t stores its i-th element elt: the
// field, when t is a struct, and the type it is stored as.
func slotOf(info *types.Info, t types.Type, i int, elt ast.Expr) (*types.Var, types.Type) {
	switch t := t.(type) {
	case *types.Struct:
		f := t.Field(i)
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			f = info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
		}
		return f, f.Type()
	case interface{ Elem() types.Type }:
		return nil, t.Elem()
	}
	return nil, nil
}

// valueTypes lists the values' types; one multi-valued expression
// spreads into its results.
func valueTypes(info *types.Info, values []ast.Expr) []types.Type {
	var out []types.Type
	for _, v := range values {
		out = append(out, info.TypeOf(v))
	}
	if len(values) == 1 {
		if tuple, ok := out[0].(*types.Tuple); ok {
			return tupleTypes(tuple)
		}
	}
	return out
}

// tupleTypes lists a tuple's types.
func tupleTypes(t *types.Tuple) []types.Type {
	var out []types.Type
	for v := range t.Variables() {
		out = append(out, v.Type())
	}
	return out
}

// convert makes t live, with every type reflection reaches from it (a
// field or element that fmt or encoding/json may print through its own
// method): each method of a live module type that meets an interface
// reached code calls, or one declared outside the module, is reached.
func (r *reacher) convert(t types.Type) {
	if r.live[t] {
		return
	}
	r.live[t] = true
	switch t := t.(type) {
	case interface{ Elem() types.Type }:
		r.convert(t.Elem())
	case *types.Struct:
		for i := range t.NumFields() {
			r.convert(t.Field(i).Type())
		}
	case *types.Named:
		if r.decls[t.Obj()].obj == nil || types.IsInterface(t) {
			return
		}
		r.lives = append(r.lives, t)
		mset := types.NewMethodSet(types.NewPointer(t))
		for i := range mset.Len() {
			name := mset.At(i).Obj().Name()
			for _, iface := range slices.Concat(r.calls[name], r.external[name]) {
				r.dispatch(t, iface, name)
			}
		}
		r.convert(t.Underlying())
	}
}
