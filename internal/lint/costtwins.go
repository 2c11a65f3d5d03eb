package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// CostTwins reports a cost model growing a closed form of its own next
// to the schedule it prices. Package hw prices comm's algorithms by
// walking the step lists comm runs (comm.WalkAllReduce and its
// siblings): a method of one of its types named after an algorithm,
// declared or promoted from an embedded field, is a hand-written twin
// growing back. Package simnet walks the step replica.Schedule lists,
// the one the replicas submit (fsdp's TestStepMatchesSchedule holds
// them together): a constant that spells a sharded preset, however it
// is built or wherever it is declared, a re-gather of its own, or a
// reference to package ddp or fsdp is a per-strategy closed form.
var CostTwins = &Analyzer{
	Name: "costtwins",
	Doc:  "hw and simnet price what comm and replica.Schedule describe, with no per-algorithm or per-strategy closed form",
	Run:  runCostTwins,
}

var (
	algorithmName = regexp.MustCompile(`(?i)hierarchical|doubletree|nlevel|tree`)
	presetName    = regexp.MustCompile(`^zero[23]$`)
	regather      = regexp.MustCompile(`(?i)regather`)
)

func runCostTwins(pkg *Package) []Finding {
	switch pkg.Types.Name() {
	case "hw":
		return algorithmMethods(pkg)
	case "simnet":
		return strategyForms(pkg)
	}
	return nil
}

// algorithmMethods reports the methods, declared or promoted, of the
// package's named types whose names name an algorithm.
func algorithmMethods(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			named, ok := pkg.Info.Defs[spec.Name].Type().(*types.Named)
			if !ok || spec.Assign.IsValid() {
				return false
			}
			mset := types.NewMethodSet(types.NewPointer(named))
			for i := range mset.Len() {
				m := mset.At(i)
				if name := m.Obj().Name(); algorithmName.MatchString(name) {
					node := ast.Node(spec)
					if m.Obj().Pkg() == pkg.Types && len(m.Index()) == 1 {
						node = declOf(pkg, m.Obj())
					}
					out = append(out, pkg.finding("costtwins", node,
						"method %s.%s is named after an algorithm; price it by walking comm's schedule", spec.Name.Name, name))
				}
			}
			return false
		})
	}
	return out
}

// fromStrategy reports whether obj, or the type it names through an
// alias, belongs to package ddp or fsdp.
func fromStrategy(obj types.Object) bool {
	if tn, ok := obj.(*types.TypeName); ok {
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			obj = named.Obj()
		}
	}
	return pkgHasSuffix(obj, "internal/ddp") || pkgHasSuffix(obj, "internal/fsdp")
}

// declOf finds the declaration of a method of the package.
func declOf(pkg *Package, obj types.Object) ast.Node {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && pkg.Info.Defs[fd.Name] == obj {
				return fd
			}
		}
	}
	return nil
}

// strategyForms reports, in simnet, every constant expression whose
// value is a sharded preset's name, every identifier, string or comment
// that speaks of a re-gather, and every reference to package ddp or
// fsdp, imports included.
func strategyForms(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); hasPathSuffix(path, "internal/ddp") || hasPathSuffix(path, "internal/fsdp") {
				out = append(out, pkg.finding("costtwins", imp, "simnet imports %s; take a strategy's shape from replica.Schedule", path))
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if regather.MatchString(c.Text) {
					out = append(out, pkg.finding("costtwins", c, "simnet speaks of a re-gather of its own; the schedule lists the gathers"))
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			expr, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if id, ok := expr.(*ast.Ident); ok {
				if regather.MatchString(id.Name) {
					out = append(out, pkg.finding("costtwins", id, "simnet names a re-gather of its own (%s); the schedule lists the gathers", id.Name))
				}
				if obj := pkg.Info.Uses[id]; obj != nil && fromStrategy(obj) {
					out = append(out, pkg.finding("costtwins", id, "simnet refers to %s; take a strategy's shape from replica.Schedule", obj.Name()))
				}
			}
			tv, ok := pkg.Info.Types[expr]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			switch v := constant.StringVal(tv.Value); {
			case presetName.MatchString(v):
				out = append(out, pkg.finding("costtwins", expr, "simnet spells the preset %q; take its shape from replica.Schedule", v))
			case regather.MatchString(v):
				out = append(out, pkg.finding("costtwins", expr, "simnet speaks of a re-gather of its own; the schedule lists the gathers"))
			default:
				return true
			}
			return false
		})
	}
	return out
}
