package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// sprintf is fmt.Sprintf under a short name for the detection cores,
// which build diagnostic messages and taint-chain elements.
func sprintf(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}

// taintSource is one direct determinism hazard inside a function body
// or package-level initializer.
type taintSource struct {
	pos  token.Pos
	kind string // walltime, globalrand, maporder or floatfold: the allow name that suppresses it
	msg  string // what the construct does and how to fix it, without the allow hint
}

// scanTaintSources walks root (a function body or an initializer
// expression) and returns its direct taint sources in position order,
// skipping sources suppressed by an //ppalint:allow directive of the
// source's kind or of detclose itself. Suppressing a source this way
// asserts the construct is deterministic after all, so it also stops
// the taint from propagating to callers.
func scanTaintSources(pass *analysis.Pass, root ast.Node, dirs *directives) []taintSource {
	var out []taintSource
	source := func(kind string) func(token.Pos, string) {
		return func(pos token.Pos, msg string) {
			if !dirs.allowed(kind, pos) && !dirs.allowed(detCloseName, pos) {
				out = append(out, taintSource{pos: pos, kind: kind, msg: msg})
			}
		}
	}
	wallClockRefs(pass, root, source(wallTimeName))
	globalRandRefs(pass, root, source(globalRandName))
	mapOrderSources(pass, root, source(mapOrderName))
	floatFoldSources(pass, root, source(floatFoldName))

	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].pos < out[j-1].pos; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// wallTimeFuncs are the time package functions that read or wait on
// the wall clock. Referencing one (not just calling it) is a source:
// storing time.Now in a variable smuggles nondeterminism just as well.
var wallTimeFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// wallClockRefs calls emit for every reference under root to a time
// package function that reads or waits on the wall clock. Simulation,
// planning and aggregation code runs on virtual time so that results
// are bit-reproducible and independent of host speed.
func wallClockRefs(pass *analysis.Pass, root ast.Node, emit func(pos token.Pos, msg string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallTimeFuncs[fn.Name()] {
			emit(sel.Pos(), sprintf("time.%s reads the wall clock in deterministic code; use the sim clock", fn.Name()))
		}
		return true
	})
}

// randConstructors are the math/rand functions that build an
// explicitly seeded source or generator — the sanctioned way to get
// randomness here. Everything else at package level draws from the
// process-global source.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2
	"NewPCG":     true,
	"NewChaCha8": true,
}

// randFunc returns the top-level math/rand (or math/rand/v2) function
// sel refers to, or nil. Methods on *rand.Rand are not returned: the
// caller owns the seed.
func randFunc(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Func {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || (fn.Pkg().Path() != "math/rand" && fn.Pkg().Path() != "math/rand/v2") {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil
	}
	return fn
}

// globalRandRefs calls emit for randomness under root that cannot be
// reproduced from a recorded seed: every reference to a top-level
// math/rand function other than the source constructors (they share
// the process-global source, so any other goroutine's draw shifts the
// sequence), and every constructor call whose arguments read the wall
// clock (rand.NewSource(time.Now().UnixNano())).
func globalRandRefs(pass *analysis.Pass, root ast.Node, emit func(pos token.Pos, msg string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectorExpr:
			if fn := randFunc(pass, v); fn != nil && !randConstructors[fn.Name()] {
				emit(v.Pos(), sprintf("rand.%s draws from the process-global source and cannot be replayed from a seed; use a seeded *rand.Rand", fn.Name()))
			}
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if fn := randFunc(pass, sel); fn != nil && randConstructors[fn.Name()] {
				seeded := false
				for _, arg := range v.Args {
					wallClockRefs(pass, arg, func(token.Pos, string) { seeded = true })
				}
				if seeded {
					emit(v.Pos(), sprintf("rand.%s seeded from the wall clock is unreproducible; thread a recorded seed instead", fn.Name()))
				}
			}
		}
		return true
	})
}

// foldMethods are accumulator method names whose call order usually
// matters (sketch folds, merges, ordered collections).
var foldMethods = map[string]bool{
	"Add": true, "Merge": true, "Observe": true, "Record": true, "Push": true,
}

// emitMethods write bytes or values to an output in call order.
var emitMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Print": true, "Printf": true, "Println": true,
}

// isMapRange reports whether loop ranges over a map.
func isMapRange(pass *analysis.Pass, loop *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[loop.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// mapOrderSources calls emit for order-sensitive work done directly
// inside every range-over-map loop under root. Go randomises map
// iteration order per run, so a loop that appends to a slice, sends
// on a channel, writes output or folds into an accumulator produces a
// different sequence every execution — the bug class that flips a
// golden hash or reorders CSV rows between two runs of the same
// campaign. Loops whose appended slice is sorted right after the loop
// (collect-then-sort) are deterministic overall and exempt.
func mapOrderSources(pass *analysis.Pass, root ast.Node, emit func(pos token.Pos, msg string)) {
	after := make(map[*ast.RangeStmt][]ast.Stmt) // the statements following each loop in its block
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.BlockStmt:
			for i, st := range v.List {
				if r, ok := st.(*ast.RangeStmt); ok {
					after[r] = v.List[i+1:]
				}
			}
		case *ast.RangeStmt:
			if isMapRange(pass, v) {
				checkMapLoop(pass, v, after[v], emit)
			}
		}
		return true
	})
}

// checkMapLoop emits one finding per order-sensitive operation in the
// body of a range-over-map loop.
func checkMapLoop(pass *analysis.Pass, loop *ast.RangeStmt, after []ast.Stmt, emit func(pos token.Pos, msg string)) {
	report := func(pos token.Pos, format string, args ...interface{}) {
		emit(pos, sprintf(format, args...))
	}
	outside := func(e ast.Expr) (*ast.Ident, bool) {
		id := rootIdent(e)
		if id == nil {
			return nil, false
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return nil, false
		}
		inside := loop.Pos() <= obj.Pos() && obj.Pos() <= loop.End()
		return id, !inside
	}

	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			report(st.Pos(), "send on %s inside map iteration delivers values in nondeterministic order; sort the keys first", exprString(st.Chan))
		case *ast.AssignStmt:
			// s = append(s, ...) into an outer slice.
			if len(st.Rhs) == 1 {
				if call, ok := st.Rhs[0].(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
					if id, out := outside(st.Lhs[0]); out && !sortedAfter(pass, id, after) {
						report(st.Pos(), "append to %s inside map iteration is order-dependent; sort the keys first", id.Name)
					}
					return true
				}
			}
			// s += t string concatenation into an outer string.
			if st.Tok == token.ADD_ASSIGN {
				if b, ok := pass.TypesInfo.Types[st.Lhs[0]]; ok {
					if basic, ok := b.Type.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						if id, out := outside(st.Lhs[0]); out {
							report(st.Pos(), "string concatenation into %s inside map iteration is order-dependent; sort the keys first", id.Name)
						}
					}
				}
			}
		case *ast.CallExpr:
			checkMapLoopCall(pass, report, outside, st)
		}
		return true
	})
}

// checkMapLoopCall flags output and fold calls inside a map loop.
func checkMapLoopCall(pass *analysis.Pass, report func(token.Pos, string, ...interface{}), outside func(ast.Expr) (*ast.Ident, bool), call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() == nil {
		// Package function: fmt emission family.
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				report(call.Pos(), "fmt.%s inside map iteration emits output in nondeterministic order; sort the keys first", fn.Name())
			}
		}
		return
	}
	name := fn.Name()
	if !foldMethods[name] && !emitMethods[name] {
		return
	}
	id, out := outside(sel.X)
	if !out {
		return
	}
	if recvOrderInsensitive(pass, sel.X) {
		return
	}
	if emitMethods[name] {
		report(call.Pos(), "%s.%s inside map iteration emits output in nondeterministic order; sort the keys first", id.Name, name)
	} else {
		report(call.Pos(), "%s.%s folds values in map-iteration order, which differs between runs; sort the keys first", id.Name, name)
	}
}

// recvOrderInsensitive reports whether e's type is a known
// commutative accumulator: sync.WaitGroup counters or any sync/atomic
// type, whose fold-named methods are bookkeeping, not ordered
// accumulation.
func recvOrderInsensitive(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	return pkg == "sync/atomic" || (pkg == "sync" && named.Obj().Name() == "WaitGroup")
}

// sortedAfter reports whether one of the statements following the
// loop sorts the slice id — the collect-then-sort idiom, which is
// deterministic overall. A sorting statement is a call into the sort
// or slices package, or a local helper whose name contains "sort"
// (sortIDs, sortTaskIDs, ...), with the slice as its first argument.
func sortedAfter(pass *analysis.Pass, id *ast.Ident, after []ast.Stmt) bool {
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return false
	}
	for _, st := range after {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		var fnName string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				continue
			}
			fnName = "sort" // any sort./slices. call counts
		case *ast.Ident:
			fnName = fun.Name
		default:
			continue
		}
		if !strings.Contains(strings.ToLower(fnName), "sort") {
			continue
		}
		if arg := rootIdent(call.Args[0]); arg != nil && pass.TypesInfo.ObjectOf(arg) == obj {
			return true
		}
	}
	return false
}

// isBuiltinAppend reports whether call is the append builtin.
func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rootIdent unwraps selectors, indexes, parens and derefs down to the
// base identifier: x.f[i] -> x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// exprString renders a short expression for diagnostics.
func exprString(e ast.Expr) string {
	if id := rootIdent(e); id != nil {
		return id.Name
	}
	return "channel"
}

var compoundOps = map[token.Token]bool{
	token.ADD_ASSIGN: true,
	token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true,
}

// floatFoldSources calls emit for floating-point accumulation under
// root whose evaluation order varies between runs: compound float
// assignment into an outer variable inside a map-range body, a
// goroutine closure, or a worker callback handed to the internal/par
// pool. FP addition is not associative — summing the same values in a
// different order changes low-order bits, which is exactly the
// difference the summary golden hash pins across worker counts.
func floatFoldSources(pass *analysis.Pass, root ast.Node, emit func(pos token.Pos, msg string)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			if isMapRange(pass, v) {
				checkFloatFold(pass, v.Body, v, "map iteration", emit)
			}
		case *ast.GoStmt:
			if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
				checkFloatFold(pass, lit.Body, lit, "a goroutine", emit)
			}
		case *ast.CallExpr:
			sel, ok := v.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			callee, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || callee.Pkg() == nil || !strings.HasSuffix(callee.Pkg().Path(), "internal/par") {
				return true
			}
			for _, arg := range v.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					checkFloatFold(pass, lit.Body, lit, "a parallel worker callback", emit)
				}
			}
		}
		return true
	})
}

// checkFloatFold emits one finding per compound float assignment into
// a variable declared outside boundary, anywhere under body.
func checkFloatFold(pass *analysis.Pass, body ast.Node, boundary ast.Node, context string, emit func(pos token.Pos, msg string)) {
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || !compoundOps[st.Tok] {
			return true
		}
		tv, ok := pass.TypesInfo.Types[st.Lhs[0]]
		if !ok {
			return true
		}
		basic, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || basic.Info()&types.IsFloat == 0 {
			return true
		}
		id := rootIdent(st.Lhs[0])
		if id == nil {
			return true
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return true
		}
		if boundary.Pos() <= obj.Pos() && obj.Pos() <= boundary.End() {
			return true // accumulator local to the context: order fixed
		}
		emit(st.Pos(), sprintf(
			"floating-point accumulation into %s inside %s sums in nondeterministic order (FP is non-associative); fold per shard and reduce in fixed order",
			id.Name, context))
		return true
	})
}
