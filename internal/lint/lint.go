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
	// Rules are the names its findings carry when they are not Name:
	// each row of a table the analyzer checks keeps its own name.
	Rules []string
	// Run reports every violation in pkg. Findings are returned raw;
	// the driver applies ignore pragmas.
	Run func(pkg *Package) []Finding
	// Module, set in place of Run, reports every violation in the
	// loaded packages seen at once.
	Module func(pkgs []*Package) []Finding
}

// check runs a over pkgs.
func (a *Analyzer) check(pkgs []*Package) []Finding {
	if a.Module != nil {
		return a.Module(pkgs)
	}
	var out []Finding
	for _, pkg := range pkgs {
		out = append(out, a.Run(pkg)...)
	}
	return out
}

// findingNames returns the analyzers' names and the names their findings
// carry.
func findingNames(analyzers []*Analyzer) map[string]bool {
	names := map[string]bool{}
	for _, a := range analyzers {
		for _, name := range append([]string{a.Name}, a.Rules...) {
			names[name] = true
		}
	}
	return names
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		CostTwins,
		ExportDoc,
		LockedCollective,
		MetricStatic,
		Reach,
		Sites,
		StoreErr,
	}
}

// IgnorePragma is the comment directive that suppresses a finding:
//
//	//ddplint:ignore <analyzer> <reason>
//
// placed on the offending line or the line immediately above it, where
// <analyzer> is the name the finding carries (an analyzer's, or a row's
// of the site table). The reason is mandatory. A pragma without one, one
// that names no analyzer or rule, and one that suppresses nothing in a
// run of its analyzer are each reported.
const IgnorePragma = "//ddplint:ignore"

// Result is the outcome of a driver run.
type Result struct {
	// Findings are the kept (unsuppressed) findings, sorted by position.
	Findings []Finding
	// Ignored counts findings suppressed by ignore pragmas.
	Ignored int
}

// Run executes every analyzer over every package, filters findings
// through //ddplint:ignore pragmas, and returns the kept findings
// sorted by position plus the suppressed count. A malformed pragma
// (missing analyzer name or reason), one naming no analyzer or rule, and
// one for a rule this run checks that suppresses nothing are reported as
// findings from the pseudo-analyzer "pragma".
func Run(pkgs []*Package, analyzers []*Analyzer) Result {
	var all []Finding
	ignored := 0
	known, ran := findingNames(append(All(), analyzers...)), findingNames(analyzers)
	pragmas := make(pragmaSet)
	for _, pkg := range pkgs {
		collectPragmas(pkg, pragmas)
	}
	for _, a := range analyzers {
		for _, f := range a.check(pkgs) {
			if pragmas.suppresses(f) {
				ignored++
				continue
			}
			all = append(all, f)
		}
	}
	for k, used := range pragmas {
		var msg string
		switch {
		case used || known[k.analyzer] && !ran[k.analyzer]:
			continue
		case k.analyzer == "":
			msg = "malformed ignore pragma: want " + IgnorePragma + " <analyzer> <reason>"
		case !known[k.analyzer]:
			msg = fmt.Sprintf("ignore pragma names no analyzer or rule: %q", k.analyzer)
		default:
			msg = fmt.Sprintf("ignore pragma for %s suppresses nothing; delete it", k.analyzer)
		}
		all = append(all, Finding{Pos: token.Position{Filename: k.file, Line: k.line}, Analyzer: "pragma", Message: msg})
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
	return Result{Findings: all, Ignored: ignored}
}

// pragmaKey identifies one ignore site: a file line and the analyzer it
// silences, "" for a pragma without an analyzer and a reason.
type pragmaKey struct {
	file     string
	line     int
	analyzer string
}

// pragmaSet maps each pragma to whether it has suppressed a finding.
type pragmaSet map[pragmaKey]bool

// suppresses reports whether a pragma covers the finding: same file,
// matching analyzer, on the finding's line or the line above. It marks
// that pragma used.
func (s pragmaSet) suppresses(f Finding) bool {
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		k := pragmaKey{f.Pos.Filename, line, f.Analyzer}
		if _, ok := s[k]; ok {
			s[k] = true
			return true
		}
	}
	return false
}

// collectPragmas adds a package's ignore pragmas to set.
func collectPragmas(pkg *Package, set pragmaSet) {
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnorePragma)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				name := ""
				if fields := strings.Fields(rest); len(fields) >= 2 {
					name = fields[0]
				}
				set[pragmaKey{pos.Filename, pos.Line, name}] = false
			}
		}
	}
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
	return obj != nil && obj.Pkg() != nil && hasPathSuffix(obj.Pkg().Path(), suffix)
}

// hasPathSuffix reports whether importPath ends in suffix on a path
// boundary.
func hasPathSuffix(importPath, suffix string) bool {
	if importPath == suffix {
		return true
	}
	n := len(importPath) - len(suffix)
	return n > 0 && importPath[n-1] == '/' && importPath[n:] == suffix
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
			return info.ObjectOf(e)
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
