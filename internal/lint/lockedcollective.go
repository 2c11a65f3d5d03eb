package lint

import (
	"go/ast"
	"go/types"
	"maps"
)

// LockedCollective reports collective-communication calls made while a
// sync.Mutex or sync.RWMutex acquired in the same function is still
// held. Collectives block on peers; abort paths (comm.AbortGroup, the
// elastic teardown) take locks to reach the group. A collective
// submitted under a mutex that the abort path also needs is a deadlock
// that only manifests during failure recovery — the worst possible
// time.
var LockedCollective = &Analyzer{
	Name: "lockedcollective",
	Doc:  "collectives must not be submitted while holding a mutex acquired in the same function",
	Run:  runLockedCollective,
}

// collectiveNames are the blocking collective entry points on the comm
// package's group types (plus the package-level compressed collective).
var collectiveNames = map[string]bool{
	"AllReduce": true, "Broadcast": true, "AllGather": true,
	"Barrier": true, "CompressedAllReduce": true,
}

func runLockedCollective(pkg *Package) []Finding {
	if hasPathSuffix(pkg.Path, "internal/comm") {
		// The comm package's own internals submit work under the group
		// lock by design (the worker decouples submission from I/O).
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			held := make(map[string]bool)
			out = append(out, walkLocked(pkg, fd.Body.List, held)...)
		}
	}
	return out
}

// walkLocked scans stmts in order, tracking which mutexes are held.
// Branch bodies are analyzed with a copy of the held set (a lock taken
// inside a branch is assumed released there), so the analysis stays
// conservative about flagging but never misses the straight-line
// lock-then-collective shape.
func walkLocked(pkg *Package, stmts []ast.Stmt, held map[string]bool) []Finding {
	var out []Finding
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if key, op, ok := mutexOp(pkg.Info, call); ok {
					switch op {
					case "Lock", "RLock":
						held[key] = true
					case "Unlock", "RUnlock":
						delete(held, key)
					}
					continue
				}
			}
			out = append(out, findLockedCollectives(pkg, s, held)...)
		case *ast.DeferStmt:
			if _, op, ok := mutexOp(pkg.Info, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
				// defer mu.Unlock(): held until return — the held set
				// keeps the key, so everything below stays flagged.
				continue
			}
			out = append(out, findLockedCollectives(pkg, s, held)...)
		case *ast.BlockStmt:
			out = append(out, walkLocked(pkg, s.List, held)...)
		case *ast.IfStmt:
			if s.Init != nil {
				out = append(out, findLockedCollectives(pkg, s.Init, held)...)
			}
			out = append(out, findLockedCollectives(pkg, s.Cond, held)...)
			out = append(out, walkLocked(pkg, s.Body.List, maps.Clone(held))...)
			if s.Else != nil {
				out = append(out, walkLocked(pkg, []ast.Stmt{s.Else}, maps.Clone(held))...)
			}
		case *ast.ForStmt:
			out = append(out, walkLocked(pkg, s.Body.List, maps.Clone(held))...)
		case *ast.RangeStmt:
			out = append(out, walkLocked(pkg, s.Body.List, maps.Clone(held))...)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					out = append(out, walkLocked(pkg, cc.Body, maps.Clone(held))...)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					out = append(out, walkLocked(pkg, cc.Body, maps.Clone(held))...)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					out = append(out, walkLocked(pkg, cc.Body, maps.Clone(held))...)
				}
			}
		case *ast.LabeledStmt:
			out = append(out, walkLocked(pkg, []ast.Stmt{s.Stmt}, held)...)
		default:
			out = append(out, findLockedCollectives(pkg, stmt, held)...)
		}
	}
	return out
}

// findLockedCollectives reports every collective call under node while
// held is non-empty. FuncLit bodies are skipped: a closure runs later,
// under its own lock discipline.
func findLockedCollectives(pkg *Package, node ast.Node, held map[string]bool) []Finding {
	if node == nil || len(held) == 0 {
		return nil
	}
	var out []Finding
	ast.Inspect(node, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(pkg.Info, call)
		if fn == nil || !collectiveNames[fn.Name()] || !pkgHasSuffix(fn, "internal/comm") {
			return true
		}
		for key := range held {
			out = append(out, pkg.finding("lockedcollective", call,
				"%s called while %s is held; a blocked collective under this mutex deadlocks the abort path — release the lock first",
				fn.Name(), key))
			break
		}
		return true
	})
	return out
}

// mutexOp reports whether call is a Lock/Unlock-family method on a
// sync.Mutex or sync.RWMutex, returning a stable key for the mutex
// expression.
func mutexOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		if named, isNamed := t.(*types.Named); !isNamed ||
			(named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
			return "", "", false
		}
	}
	return exprString(sel.X), sel.Sel.Name, true
}
