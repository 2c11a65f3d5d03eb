package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// TransportCalls reports package comm reaching the transport anywhere
// but schedule.go. Every collective reaches the mesh through runSteps
// there, so the frame-length check, the send join and the frame
// hand-back exist once and the static schedule checker sees every
// schedule; a Send, Recv, SendBytes or RecvBytes of a transport type
// used in any other non-test file of comm — called, or taken as a
// method value or expression to call later — is a private loop growing
// back. It is type-aware: a comm method that happens to be called Send
// is not the transport's, and an alias of the transport's is.
var TransportCalls = &Analyzer{
	Name: "transportcalls",
	Doc:  "package comm reaches the transport's Send/Recv/SendBytes/RecvBytes only from schedule.go",
	Run:  runTransportCalls,
}

// transportMethods are the frame calls that belong to runSteps.
var transportMethods = map[string]bool{"Send": true, "Recv": true, "SendBytes": true, "RecvBytes": true}

func runTransportCalls(pkg *Package) []Finding {
	if pkg.Types.Name() != "comm" {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		if filepath.Base(pkg.Fset.Position(file.Pos()).Filename) == "schedule.go" {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pkg.Info.Selections[sel]
			if s == nil || s.Kind() == types.FieldVal {
				return true
			}
			if obj := s.Obj(); transportMethods[obj.Name()] && pkgHasSuffix(obj, "internal/transport") {
				out = append(out, pkg.finding("transportcalls", sel,
					"comm uses the transport's %s outside schedule.go; run the collective's steps through runSteps", obj.Name()))
			}
			return true
		})
	}
	return out
}
