package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// LockHeld reports blocking operations performed while a sync mutex
// is held: channel sends and receives, selects without a default, and
// blocking I/O (reads, writes, accepts, dials). A goroutine that
// blocks with a lock held stalls every contender for the duration of
// the block — in the coordinator that turns one slow worker
// connection into a pool-wide freeze. The analysis is a per-function
// syntactic walk: Lock/RLock adds the receiver to the held set,
// Unlock/RUnlock removes it, a deferred Unlock keeps it held to the
// end of the function, and branch bodies are scanned with a copy of
// the set.
var LockHeld = &analysis.Analyzer{
	Name: lockHeldName,
	Doc: "forbid blocking operations while holding a mutex\n\n" +
		"Between mu.Lock() and mu.Unlock() (including the span of a deferred\n" +
		"unlock) " + defaultCoordPackages + " must not send or receive on channels, select\n" +
		"without a default, or perform blocking I/O (io/net/bufio/os reads and\n" +
		"writes, net dials and accepts). A blocked lock holder stalls every\n" +
		"contender. Intentional short critical-section I/O is annotated with\n" +
		"//ppalint:allow lockheld <reason>. sync.Cond.Wait is exempt: it releases\n" +
		"the lock while blocking.",
	Run: runLockHeld,
}

// blockingIOMethods are method names that block on I/O when the
// method comes from io, net, bufio or os.
var blockingIOMethods = map[string]bool{
	"Read": true, "Write": true, "ReadSlice": true, "ReadString": true,
	"ReadBytes": true, "ReadLine": true, "ReadRune": true, "ReadByte": true,
	"WriteTo": true, "ReadFrom": true, "Flush": true, "Accept": true,
}

// blockingNetFuncs are net package functions that block on the
// network.
var blockingNetFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "Listen": true, "ListenPacket": true,
}

func runLockHeld(pass *analysis.Pass) (interface{}, error) {
	if !pathMatches(pass.Pkg.Path(), defaultCoordPackages) {
		return nil, nil
	}
	dirs := scanDirectives(pass, lockHeldName)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lh := &lockHeldScan{pass: pass, dirs: dirs}
			lh.stmts(fd.Body.List, map[string]token.Pos{})
			// Function literals run on their own goroutine or call
			// stack: scan each with an empty held set.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					lh.stmts(lit.Body.List, map[string]token.Pos{})
				}
				return true
			})
		}
	}
	dirs.reportUnused(pass)
	return nil, nil
}

// lockHeldScan walks one function's statements tracking held mutexes.
type lockHeldScan struct {
	pass *analysis.Pass
	dirs *directives
}

// stmts scans a statement list in order, mutating held.
func (lh *lockHeldScan) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, st := range list {
		lh.stmt(st, held)
	}
}

// copyHeld returns an independent copy for branch bodies.
func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (lh *lockHeldScan) stmt(st ast.Stmt, held map[string]token.Pos) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if lh.lockOp(s.X, held) {
			return
		}
		lh.expr(s.X, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end: the
		// held set is deliberately not cleared. The deferred call
		// itself runs during unwinding; not scanned.
	case *ast.GoStmt:
		// New goroutine: holds nothing. Its literal body is scanned
		// separately with an empty set; arguments are evaluated here.
		for _, arg := range s.Call.Args {
			lh.expr(arg, held)
		}
	case *ast.SendStmt:
		lh.report(s.Pos(), "channel send", held)
		lh.expr(s.Value, held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			lh.report(s.Pos(), "select without default", held)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				lh.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		lh.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			lh.stmt(s.Init, held)
		}
		lh.expr(s.Cond, held)
		lh.stmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			lh.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lh.stmt(s.Init, held)
		}
		if s.Cond != nil {
			lh.expr(s.Cond, held)
		}
		lh.stmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		if tv, ok := lh.pass.TypesInfo.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				lh.report(s.Pos(), "range over channel", held)
			}
		}
		lh.expr(s.X, held)
		lh.stmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			lh.stmt(s.Init, held)
		}
		if s.Tag != nil {
			lh.expr(s.Tag, held)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				lh.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				lh.stmts(cc.Body, copyHeld(held))
			}
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lh.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lh.expr(e, held)
		}
	case *ast.DeclStmt, *ast.BranchStmt, *ast.IncDecStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		if ls, ok := st.(*ast.LabeledStmt); ok {
			lh.stmt(ls.Stmt, held)
		}
	}
}

// lockOp handles mu.Lock()/mu.Unlock() expression statements,
// returning true when e was one.
func (lh *lockHeldScan) lockOp(e ast.Expr, held map[string]token.Pos) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := lh.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	key := lockKey(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		held[key] = call.Pos()
		return true
	case "Unlock", "RUnlock":
		delete(held, key)
		return true
	}
	return false
}

// expr scans an expression for blocking operations, not descending
// into function literals (they run on their own stack).
func (lh *lockHeldScan) expr(e ast.Expr, held map[string]token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				lh.report(v.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			lh.blockingCall(v, held)
		}
		return true
	})
}

// blockingCall reports call when it is blocking I/O.
func (lh *lockHeldScan) blockingCall(call *ast.CallExpr, held map[string]token.Pos) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := lh.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	pkg := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		switch pkg {
		case "io", "net", "bufio", "os":
			if blockingIOMethods[fn.Name()] {
				lh.report(call.Pos(), sprintf("%s.%s", lockKey(sel.X), fn.Name()), held)
			}
		}
		return
	}
	if pkg == "net" && blockingNetFuncs[fn.Name()] {
		lh.report(call.Pos(), "net."+fn.Name(), held)
	}
}

// report emits one finding if any mutex is held at pos.
func (lh *lockHeldScan) report(pos token.Pos, what string, held map[string]token.Pos) {
	if len(held) == 0 || lh.dirs.allowed(lockHeldName, pos) {
		return
	}
	// Deterministic order for multi-lock spans: sort the keys, then
	// render.
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	locks := make([]string, 0, len(keys))
	for _, k := range keys {
		locks = append(locks, sprintf("%s (locked at %s)", k, lh.pass.Fset.Position(held[k])))
	}
	lh.pass.Reportf(pos,
		"%s while holding %s blocks every contender for the lock; release it first (or //ppalint:allow lockheld <reason>)",
		what, strings.Join(locks, ", "))
}

// lockKey renders the mutex receiver path (c.mu, p.state.mu) for the
// held-set key and diagnostics.
func lockKey(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return lockKey(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return lockKey(v.X)
	case *ast.StarExpr:
		return lockKey(v.X)
	case *ast.IndexExpr:
		return lockKey(v.X) + "[...]"
	}
	return "mutex"
}
