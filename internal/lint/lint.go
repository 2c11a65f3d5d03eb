package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic at a source position.
type Finding struct {
	// Pos locates the finding (file:line:col).
	Pos token.Position
	// Analyzer is the name of the analyzer that produced it, and the
	// name an ignore pragma must reference to suppress it.
	Analyzer string
	// Message describes the violated invariant at this site.
	Message string
}

// String renders the finding in the canonical file:line: [analyzer]
// message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one project-invariant check run over a package.
type Analyzer struct {
	// Name is the analyzer's identifier (used in output and pragmas).
	Name string
	// Doc is a one-line description of the invariant it enforces.
	Doc string
	// Run reports every violation in pkg. Findings are returned raw;
	// the driver applies ignore pragmas.
	Run func(pkg *Package) []Finding
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		Atomic64Align,
		CostTwins,
		LockedCollective,
		MetricStatic,
		OneAlign,
		OneConstructor,
		OneSpawn,
		StoreErr,
		TransportCalls,
	}
}

// IgnorePragma is the comment directive that suppresses a finding:
//
//	//ddplint:ignore <analyzer> <reason>
//
// placed on the offending line or the line immediately above it. The
// reason is mandatory — an ignore without a stated reason is itself
// reported.
const IgnorePragma = "//ddplint:ignore"

// Result is the outcome of a driver run.
type Result struct {
	// Findings are the kept (unsuppressed) findings, sorted by position.
	Findings []Finding
	// Ignored counts findings suppressed by ignore pragmas.
	Ignored int
	// Packages counts the packages analyzed.
	Packages int
}

// Run executes every analyzer over every package, filters findings
// through //ddplint:ignore pragmas, and returns the kept findings
// sorted by position plus the suppressed count. Malformed pragmas
// (missing analyzer name or reason) are reported as findings from the
// pseudo-analyzer "pragma".
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	var all []Finding
	ignored := 0
	for _, pkg := range pkgs {
		pragmas, bad := collectPragmas(pkg)
		all = append(all, bad...)
		for _, a := range analyzers {
			for _, f := range a.Run(pkg) {
				if pragmas.suppresses(f) {
					ignored++
					continue
				}
				all = append(all, f)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return Result{Findings: all, Ignored: ignored, Packages: len(pkgs)}
}

// pragmaKey identifies one ignore site: a file line and the analyzer it
// silences.
type pragmaKey struct {
	file     string
	line     int
	analyzer string
}

type pragmaSet map[pragmaKey]bool

// suppresses reports whether a pragma covers the finding: same file,
// matching analyzer, on the finding's line or the line above.
func (s pragmaSet) suppresses(f Finding) bool {
	return s[pragmaKey{f.Pos.Filename, f.Pos.Line, f.Analyzer}] ||
		s[pragmaKey{f.Pos.Filename, f.Pos.Line - 1, f.Analyzer}]
}

// collectPragmas scans a package's comments for ignore pragmas,
// returning the well-formed set and a finding per malformed one.
func collectPragmas(pkg *Package) (pragmaSet, []Finding) {
	set := make(pragmaSet)
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnorePragma)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:      pos,
						Analyzer: "pragma",
						Message:  fmt.Sprintf("malformed ignore pragma %q: want %s <analyzer> <reason>", c.Text, IgnorePragma),
					})
					continue
				}
				set[pragmaKey{pos.Filename, pos.Line, fields[0]}] = true
			}
		}
	}
	return set, bad
}

// finding builds a Finding at node's position.
func (p *Package) finding(analyzer string, node ast.Node, format string, args ...any) Finding {
	return Finding{
		Pos:      p.Fset.Position(node.Pos()),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	}
}

// ---- shared type-resolution helpers ----------------------------------------

// pkgHasSuffix reports whether obj is declared in a package whose
// import path ends in suffix (matching by suffix keeps the analyzers
// independent of the module name).
func pkgHasSuffix(obj types.Object, suffix string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeOf resolves the called function or method object of a call
// expression, or nil when the "call" is a conversion, builtin, or an
// indirect call through a function value.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call: pkg.Func.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// returnsError reports whether the call's last result is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		return t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type())
	default:
		return isErrorType(t)
	}
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// rootIdentObj returns the object of the leftmost identifier of a
// selector chain (the variable `s` in s.mu.Lock()), or nil when the
// base is not a plain identifier.
func rootIdentObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if o := info.Uses[e]; o != nil {
				return o
			}
			return info.Defs[e]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// exprString renders a (small) expression for use in messages and lock
// identity keys.
func exprString(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	default:
		return "?"
	}
}
