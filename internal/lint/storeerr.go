package lint

import (
	"go/ast"
	"go/types"
)

// StoreErr reports dropped errors at the call sites whose failures the
// system's durability and liveness stories depend on: rendezvous store
// operations and the elastic Rendezvous calls made of them, transport
// send/recv/abort, checkpoint save/commit/close,
// and Close on files opened for writing. A dropped store error turns a
// failed rendezvous write into a silent hang; a dropped commit or
// written-file Close error turns data loss into "checkpoint saved".
var StoreErr = &Analyzer{
	Name: "storeerr",
	Doc:  "errors from store, transport, and checkpoint call sites must be checked",
	Run:  runStoreErr,
}

// storeErrTargets maps a package-path suffix to the method/function
// names whose error results must never be dropped there.
var storeErrTargets = map[string]map[string]bool{
	"internal/store": {
		"Set": true, "Get": true, "GetCancel": true, "Add": true,
		"Delete": true, "CompareAndSwap": true, "Watch": true,
	},
	"internal/transport": {
		"Send": true, "Recv": true, "SendBytes": true, "RecvBytes": true,
		"Abort": true,
	},
	"internal/elastic": {
		"CurrentGeneration": true, "ProposeGeneration": true,
		"WaitGenerationAbove": true, "Join": true,
	},
	"internal/ckpt": {
		"Save": true, "Done": true, "Submit": true, "Sync": true,
		"Close": true, "Commit": true, "Load": true, "Restore": true,
	},
}

func runStoreErr(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, checkStoreErrFunc(pkg, fd.Body)...)
		}
	}
	return out
}

func checkStoreErrFunc(pkg *Package, body *ast.BlockStmt) []Finding {
	var out []Finding
	// Files opened for writing in this function, by variable object:
	// their Close error is part of the write's durability contract.
	written := map[types.Object]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			call, ok := s.Rhs[0].(*ast.CallExpr)
			if !ok || len(s.Rhs) != 1 {
				return true
			}
			// Track f, err := os.Create(...) / os.OpenFile(..., write flags, ...).
			if isWriteOpen(pkg.Info, call) && len(s.Lhs) == 2 {
				if id, ok := s.Lhs[0].(*ast.Ident); ok && pkg.Info.ObjectOf(id) != nil {
					written[pkg.Info.ObjectOf(id)] = true
				}
			}
			// v, _ := target(...) or _ = target(...): error discarded.
			if name, ok := storeErrTarget(pkg.Info, call); ok && returnsError(pkg.Info, call) {
				if last, ok := s.Lhs[len(s.Lhs)-1].(*ast.Ident); ok && last.Name == "_" {
					out = append(out, pkg.finding("storeerr", call,
						"error from %s discarded with _; handle or propagate it", name))
				}
			}
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if name, ok := storeErrTarget(pkg.Info, call); ok && returnsError(pkg.Info, call) {
					out = append(out, pkg.finding("storeerr", call,
						"unchecked error from %s; handle or propagate it", name))
				} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
					if obj := rootIdentObj(pkg.Info, sel.X); obj != nil && written[obj] {
						out = append(out, pkg.finding("storeerr", call,
							"unchecked Close error on a file opened for writing; check it (or discard explicitly with _ =)"))
					}
				}
			}
		case *ast.GoStmt:
			if name, ok := storeErrTarget(pkg.Info, s.Call); ok && returnsError(pkg.Info, s.Call) {
				out = append(out, pkg.finding("storeerr", s.Call,
					"error from %s dropped by go statement; wrap it in a closure that handles the error", name))
			}
		case *ast.DeferStmt:
			if name, ok := storeErrTarget(pkg.Info, s.Call); ok && returnsError(pkg.Info, s.Call) {
				out = append(out, pkg.finding("storeerr", s.Call,
					"error from %s dropped by defer; check it in a closure (e.g. via a named return)", name))
				return true
			}
			// defer f.Close() on a file opened for writing: the Close
			// error is the write's last failure signal.
			if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if obj := rootIdentObj(pkg.Info, sel.X); obj != nil && written[obj] {
					out = append(out, pkg.finding("storeerr", s.Call,
						"defer %s.Close() on a file opened for writing discards the Close error; close explicitly and check it",
						exprString(sel.X)))
				}
			}
		}
		return true
	})
	return out
}

// storeErrTarget reports whether call targets one of the audited
// store/transport/ckpt functions, returning a display name.
func storeErrTarget(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeOf(info, call)
	if fn == nil {
		return "", false
	}
	for suffix, names := range storeErrTargets {
		if names[fn.Name()] && pkgHasSuffix(fn, suffix) {
			return fn.Pkg().Name() + "." + displayName(fn), true
		}
	}
	return "", false
}

// displayName renders Type.Method for methods and Func for functions.
func displayName(fn *types.Func) string {
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// isWriteOpen reports whether call opens an *os.File for writing:
// os.Create always, os.OpenFile when the flag expression mentions a
// write mode.
func isWriteOpen(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return false
	}
	switch fn.Name() {
	case "Create":
		return true
	case "OpenFile":
		if len(call.Args) < 2 {
			return false
		}
		return mentionsWriteFlag(call.Args[1])
	}
	return false
}

// mentionsWriteFlag reports whether the flag expression references
// O_WRONLY, O_RDWR, or O_APPEND anywhere.
func mentionsWriteFlag(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch id.Name {
			case "O_WRONLY", "O_RDWR", "O_APPEND":
				found = true
			}
		}
		return !found
	})
	return found
}
