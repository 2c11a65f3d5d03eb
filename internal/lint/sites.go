package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// Sites holds the repo's "written once" rules, one row of siteRules each:
// within its scope, a row's symbols are named only at its allowed sites.
// A symbol counts wherever it is named, called or taken as a value to
// call later, through any import name, alias or dot import; a function of
// another package, or a method of another type, that has the same name
// does not. Each finding carries its row's name, which is the name an
// ignore pragma or a fixture's //lint:want marker gives.
var Sites = &Analyzer{
	Name:  "sites",
	Doc:   "each site rule's symbols are named only at its allowed sites: " + strings.Join(slices.Sorted(maps.Keys(siteRules)), ", "),
	Rules: slices.Sorted(maps.Keys(siteRules)),
	Run:   runSites,
}

// A siteRule says where, within its scope, its symbols may be named. Its
// key in siteRules is its name.
type siteRule struct {
	symbols []string // "<package path suffix>.<Name>"
	methods bool     // the symbols are methods, not functions
	// arg, when set, narrows a use to a call of a symbol whose first
	// argument it describes, and the message names that description.
	arg     func(info *types.Info, arg ast.Expr) string
	scope   string   // the package path suffix the rule holds in; "" is every package
	allowed []string // package path suffixes, or "<package path suffix>/<file>.go"
	once    bool     // the scope names the symbols exactly once
	message string   // a format whose one %s is the symbol (or argument) named
}

var siteRules = map[string]siteRule{
	// Every collective reaches the mesh through runSteps, so the
	// frame-length check, the send join and the frame hand-back exist once
	// and the static schedule checker sees every schedule. A transport
	// call anywhere else in comm is a private loop growing back.
	"transportcalls": {
		symbols: []string{"internal/transport.Send", "internal/transport.Recv", "internal/transport.SendBytes", "internal/transport.RecvBytes"},
		methods: true,
		scope:   "internal/comm",
		allowed: []string{"internal/comm/schedule.go"},
		message: "comm uses %s outside schedule.go; run the collective's steps through runSteps",
	},
	// strategy.Build is the only code that turns a strategy name into a
	// replica: a second place that pairs a constructor with its options is
	// a second copy of the run's configuration, free to drop or forward a
	// field differently. benchmark/ is frozen, so that its figures compare
	// across commits, and builds through the constructors until it moves
	// onto Build.
	"oneconstructor": {
		symbols: []string{"internal/ddp.NewReplica", "internal/fsdp.New"},
		allowed: []string{"internal/strategy", "benchmark"},
		message: "%s named outside internal/strategy; build the replica with strategy.Build",
	},
	// ddp and fsdp align replicas and re-sync buffers through
	// replica.Core, and elastic.SyncState through replica.Align: a module's
	// parameters or buffers broadcast anywhere else, whatever the variable
	// is called, are a private copy of the replica lifecycle.
	"onealign": {
		symbols: []string{"internal/comm.Broadcast"},
		methods: true,
		arg:     moduleStorage,
		allowed: []string{"internal/replica/core.go"},
		message: "broadcasts %s outside internal/replica/core.go; align replicas through replica.Align",
	},
	// Every child process, training rank or elastic worker, starts through
	// fleet.spawn, whose command line is derived from the flag binding and
	// whose kill-and-reap covers an early return. A second use is a
	// hand-written launcher growing back; none means the spawn site went
	// away.
	"onespawn": {
		symbols: []string{"os/exec.Command", "os/exec.CommandContext"},
		scope:   "cmd/ddptrain",
		once:    true,
		message: "%s in cmd/ddptrain; start every child process at its one spawn site",
	},
	// On GOARCH=386 and other 32-bit targets the function-form 64-bit
	// atomics fault unless their operand is 8-aligned, which struct layout
	// guarantees only for an allocation's first word. The typed
	// atomic.Int64 and atomic.Uint64 carry an alignment marker the
	// compiler honours on every GOARCH, so a tree that uses only them is
	// aligned by construction. No site is allowed.
	"atomic64align": {
		symbols: []string{
			"sync/atomic.AddInt64", "sync/atomic.AddUint64", "sync/atomic.LoadInt64", "sync/atomic.LoadUint64",
			"sync/atomic.StoreInt64", "sync/atomic.StoreUint64", "sync/atomic.SwapInt64", "sync/atomic.SwapUint64",
			"sync/atomic.CompareAndSwapInt64", "sync/atomic.CompareAndSwapUint64",
		},
		message: "%s needs an 8-aligned operand, which 32-bit struct layout does not guarantee; declare the word as atomic.Int64 or atomic.Uint64 instead",
	},
}

func runSites(pkg *Package) []Finding {
	var out []Finding
	all := siteUses(pkg)
	for name, r := range siteRules {
		uses := slices.DeleteFunc(all[name], func(u siteUse) bool { return slices.ContainsFunc(r.allowed, u.at) })
		if n := len(uses); r.once {
			if n == 1 || !r.inScope(pkg) {
				continue
			}
			if n == 0 {
				uses = []siteUse{{node: pkg.Files[0].Name, subject: path.Base(r.symbols[0])}}
			}
			for j := range uses {
				uses[j].subject = fmt.Sprintf("%s named %d times", uses[j].subject, n)
			}
		}
		for _, u := range uses {
			out = append(out, pkg.finding(name, u.node, r.message, u.subject))
		}
	}
	return out
}

// siteUse is one place a package names a site rule's symbol.
type siteUse struct {
	file    string // "<package path>/<file>.go"
	node    ast.Node
	subject string // the symbol named, or the argument the rule describes
}

// siteUses walks pkg once and returns, by name, for each row of siteRules
// whose scope holds pkg, every place pkg names the row's symbols, allowed
// sites included.
func siteUses(pkg *Package) map[string][]siteUse {
	uses := map[string][]siteUse{}
	for _, file := range pkg.Files {
		site := pkg.Path + "/" + filepath.Base(pkg.Fset.Position(file.Pos()).Filename)
		ast.Inspect(file, func(n ast.Node) bool {
			for name, r := range siteRules {
				if subject := r.match(pkg.Info, n); subject != "" && r.inScope(pkg) {
					uses[name] = append(uses[name], siteUse{site, n, subject})
				}
			}
			return true
		})
	}
	return uses
}

func (r siteRule) inScope(pkg *Package) bool {
	return r.scope == "" || hasPathSuffix(pkg.Path, r.scope)
}

// match returns what n names of r's symbols, or "": without an argument
// matcher, an identifier naming a symbol is its use; with one, a call of
// a symbol on an argument the matcher describes is.
func (r siteRule) match(info *types.Info, n ast.Node) string {
	var fn *types.Func
	call, _ := n.(*ast.CallExpr)
	if id, ok := n.(*ast.Ident); ok && r.arg == nil {
		fn, _ = info.Uses[id].(*types.Func)
	} else if call != nil && r.arg != nil && len(call.Args) > 0 {
		fn = calleeOf(info, call)
	}
	if fn == nil || fn.Pkg() == nil || (fn.Signature().Recv() != nil) != r.methods {
		return ""
	}
	qualified := fn.Pkg().Path() + "." + fn.Name()
	if !slices.ContainsFunc(r.symbols, func(s string) bool { return hasPathSuffix(qualified, s) }) {
		return ""
	}
	if r.arg != nil {
		return r.arg(info, call.Args[0])
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// at reports whether u is at site: in a package whose path ends in site,
// or in the file site names.
func (u siteUse) at(site string) bool {
	return hasPathSuffix(path.Dir(u.file), site) || hasPathSuffix(u.file, site)
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
