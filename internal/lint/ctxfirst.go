package lint

import (
	"go/ast"
	"go/types"
)

// CtxFirst enforces the module's context discipline: an exported function
// or method that takes a context.Context must take it as its first
// parameter (every caller then threads cancellation the same way), and
// non-test library code under internal/ must never mint its own
// context.Background()/context.TODO() — the session and service layers
// own the root context and everything below them inherits the caller's.
// A process root (the daemon's lifetime context) carries
// `//graphalint:ctxbg <reason>`.
var CtxFirst = &Analyzer{
	Name:   "ctxfirst",
	Doc:    "context.Context first in exported signatures; no context.Background/TODO under internal/",
	Marker: MarkerCtxBG,
	Run:    runCtxFirst,
}

func runCtxFirst(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || fd.Type.Params == nil {
				continue
			}
			pos := 0
			for _, field := range fd.Type.Params.List {
				width := len(field.Names)
				if width == 0 {
					width = 1
				}
				if pos > 0 && isContextType(p.TypeOf(field.Type)) {
					p.Report(field, "%s: context.Context must be the first parameter", fd.Name.Name)
				}
				pos += width
			}
		}
		if p.Contracts.Internal {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				obj := calleeOf(p.Pkg.Info, call)
				for _, name := range [...]string{"Background", "TODO"} {
					if isPkgFunc(obj, "context", name) {
						p.Report(call, "context.%s in internal library code: thread the caller's ctx instead of minting a root; waive a process root with //graphalint:ctxbg <reason>", name)
					}
				}
				return true
			})
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
