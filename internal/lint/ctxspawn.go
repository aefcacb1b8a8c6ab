package lint

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
)

// CtxSpawn requires goroutines in the coordination layer to receive a
// context. A goroutine with no cancellation path outlives the job
// that spawned it: the reader keeps blocking on a dead connection,
// the heartbeat keeps ticking for a cancelled campaign. The check is
// syntactic but effective — the go statement must either pass a
// context.Context argument or close over one (referencing ctx inside
// the function literal counts, since selecting on ctx.Done() is the
// usual shape).
var CtxSpawn = &analysis.Analyzer{
	Name: ctxSpawnName,
	Doc: "require coordination-layer goroutines to receive a context\n\n" +
		"A go statement in " + defaultCoordPackages + " must pass a context.Context to the\n" +
		"spawned function or close over one, so the goroutine has a cancellation\n" +
		"path. Goroutines whose lifetime is bounded by other means (connection\n" +
		"close unblocking a read, process exit) are annotated with\n" +
		"//ppalint:allow ctxspawn <reason>.",
	Run: runCtxSpawn,
}

func runCtxSpawn(pass *analysis.Pass) (interface{}, error) {
	if !pathMatches(pass.Pkg.Path(), defaultCoordPackages) {
		return nil, nil
	}
	dirs := scanDirectives(pass, ctxSpawnName)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goReferencesContext(pass, g) || dirs.allowed(ctxSpawnName, g.Pos()) {
				return true
			}
			pass.Reportf(g.Pos(),
				"goroutine is spawned without a context; pass or capture a context.Context so it can be cancelled (or //ppalint:allow ctxspawn <reason>)")
			return true
		})
	}
	dirs.reportUnused(pass)
	return nil, nil
}

// goReferencesContext reports whether the go statement's call
// mentions any context.Context-typed object — an argument, a closed-
// over variable, or a field read like w.ctx.
func goReferencesContext(pass *analysis.Pass, g *ast.GoStmt) bool {
	found := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj != nil && isContextType(obj.Type()) {
			found = true
			return false
		}
		return true
	})
	return found
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
