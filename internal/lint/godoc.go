package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// ExportDoc holds every package under internal/ to documenting what it
// exports: a top-level func, type, var or const with an exported name,
// and an exported method of an exported type, carries a doc comment. A
// member of a documented var, const or type group inherits the group's
// comment; a comment of only directives (//go:noinline) documents
// nothing.
var ExportDoc = &Analyzer{
	Name: "doc",
	Doc:  "every exported identifier of an internal/ package has a doc comment (methods: on exported receivers)",
	Run:  runExportDoc,
}

func runExportDoc(pkg *Package) []Finding {
	if !strings.Contains(pkg.Path, "/internal/") {
		return nil
	}
	var out []Finding
	missing := func(name *ast.Ident, docs ...*ast.CommentGroup) {
		for _, d := range docs {
			if d.Text() != "" {
				return
			}
		}
		out = append(out, pkg.finding("doc", name, "exported %s has no doc comment", name.Name))
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && (d.Recv == nil || receiverExported(d.Recv.List[0].Type)) {
					missing(d.Name, d.Doc)
				}
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							missing(s.Name, s.Doc, d.Doc)
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() {
								missing(name, s.Doc, d.Doc)
								break
							}
						}
					}
				}
			}
		}
	}
	return out
}

// receiverExported reports whether a method's receiver type, with its
// pointer and type parameters stripped, has an exported name.
func receiverExported(t ast.Expr) bool {
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.ParenExpr:
			t = e.X
		case *ast.Ident:
			return e.IsExported()
		default:
			return false
		}
	}
}
