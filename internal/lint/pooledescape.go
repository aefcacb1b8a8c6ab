package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// PooledEscape reports uses of a pooled value after its release in
// the same function. The engine's pooled events and its tuple and
// record pools recycle objects in place: a reference that survives
// the Put/release call aliases memory the next Get may already be
// rewriting — corruption that surfaces later as an inexplicable
// flipped golden hash. Storing the value into a struct field or
// capturing it in a closure after release is the escape variant of
// the same bug.
//
// Detection is linear within a function body: a value is considered
// pooled when it is assigned from a Get()/get() call on a
// sync.Pool-like receiver (type name containing "Pool" or "pool"),
// released by pool.Put(v)/pool.put(v) or v.release()/v.Free(), and
// reported at every syntactic use positioned after the release unless
// an intervening reassignment refreshed it. A deferred Put runs at
// function exit, after every use, and never flags. Control flow is not
// modelled; annotate the rare safe case with
// //ppalint:allow pooledescape <reason>.
var PooledEscape = &analysis.Analyzer{
	Name: pooledEscapeName,
	Doc: "forbid use of pooled values after their release\n\n" +
		"Objects from a sync.Pool or a free list are recycled in place; any use,\n" +
		"struct-field store or closure capture after the Put/release call in the\n" +
		"same function aliases memory a later Get may rewrite concurrently. Move\n" +
		"the release after the last use, or annotate a provably safe case with\n" +
		"//ppalint:allow pooledescape <reason>.",
	Run: runPooledEscape,
}

// releaseMethods are method names that return their receiver to a
// pool or free list.
var releaseMethods = map[string]bool{
	"release": true, "Release": true, "Free": true, "free": true, "Recycle": true, "recycle": true,
}

func runPooledEscape(pass *analysis.Pass) (interface{}, error) {
	dirs := scanDirectives(pass, pooledEscapeName)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPooledFunc(pass, dirs, fd.Body)
			}
		}
	}
	dirs.reportUnused(pass)
	return nil, nil
}

// poolRecv reports whether e looks like a pool: its (possibly
// pointer) named type is sync.Pool or has "Pool"/"pool" in its name.
func poolRecv(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && name == "Pool" {
		return true
	}
	return strings.Contains(name, "Pool") || strings.Contains(name, "pool") || strings.Contains(name, "freeList")
}

// getCall unwraps `expr` (through type assertions and parens) to a
// pool Get call, returning true when it is one.
func getCall(pass *analysis.Pass, e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
			continue
		case *ast.TypeAssertExpr:
			e = v.X
			continue
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			if n := sel.Sel.Name; n != "Get" && n != "get" {
				return false
			}
			return poolRecv(pass, sel.X)
		default:
			return false
		}
	}
}

func checkPooledFunc(pass *analysis.Pass, dirs *directives, body *ast.BlockStmt) {
	pooled := make(map[types.Object]bool)          // vars assigned from a pool Get
	releases := make(map[types.Object][]token.Pos) // release positions (call End)
	resets := make(map[types.Object][]token.Pos)   // reassignment positions
	deferred := make(map[*ast.CallExpr]bool)       // calls under a defer: run at exit, after every use

	// First walk: find pooled vars, releases, resets.
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.DeferStmt:
			deferred[st.Call] = true
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.TypesInfo.ObjectOf(id)
				if obj == nil {
					continue
				}
				if i < len(st.Rhs) && getCall(pass, st.Rhs[i]) {
					pooled[obj] = true
				}
				resets[obj] = append(resets[obj], id.Pos())
			}
		case *ast.CallExpr:
			if deferred[st] {
				return true // a deferred Put runs at function exit
			}
			sel, ok := st.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			// pool.Put(v) / pool.put(v)
			if (name == "Put" || name == "put") && len(st.Args) == 1 && poolRecv(pass, sel.X) {
				if id, ok := st.Args[0].(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
						releases[obj] = append(releases[obj], st.End())
					}
				}
			}
			// v.release() / v.Free() on a pooled var
			if releaseMethods[name] && len(st.Args) == 0 {
				if id, ok := sel.X.(*ast.Ident); ok {
					if obj := pass.TypesInfo.ObjectOf(id); obj != nil && pooled[obj] {
						releases[obj] = append(releases[obj], st.End())
					}
				}
			}
		}
		return true
	})

	flagged := false
	for obj := range releases {
		if !pooled[obj] {
			delete(releases, obj)
		} else {
			flagged = true
		}
	}
	if !flagged {
		return
	}
	for obj := range releases {
		sort.Slice(releases[obj], func(i, j int) bool { return releases[obj][i] < releases[obj][j] })
		sort.Slice(resets[obj], func(i, j int) bool { return resets[obj][i] < resets[obj][j] })
	}

	// Second walk: any use positioned after a release without an
	// intervening reassignment is a use-after-release.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		rels, ok := releases[obj]
		if !ok {
			return true
		}
		var last token.Pos = token.NoPos
		for _, r := range rels {
			if r <= id.Pos() && r > last {
				last = r
			}
		}
		if last == token.NoPos {
			return true
		}
		for _, rs := range resets[obj] {
			if rs > last && rs <= id.Pos() {
				return true // refreshed between release and this use
			}
		}
		if dirs.allowed(pooledEscapeName, id.Pos()) {
			return true
		}
		pass.Reportf(id.Pos(),
			"%s is used after its release at %s; released pool values may be recycled concurrently — move the release after the last use (or //ppalint:allow pooledescape <reason>)",
			id.Name, pass.Fset.Position(last-1))
		return true
	})
}
