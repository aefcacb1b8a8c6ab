package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// defaultRoots are the declared determinism roots: the entry points
// whose transitive call closure must reach no tainted function. They
// are the functions the after-the-fact tests pin — the campaign
// runner and its range/merge API, the engine step path, the sketch
// fold/merge/marshal path, and the coordinator's merge/partition
// half. Package parts are path suffixes (pathMatches), so the list
// works under any module path prefix.
const defaultRoots = "internal/campaign.Run," +
	"internal/campaign.RunContext," +
	"internal/campaign.RunRange," +
	"internal/campaign.RunRangeContext," +
	"internal/campaign.Partition," +
	"internal/campaign.MergeShardStates," +
	"internal/campaign.Generate," +
	"internal/campaign.(*StopMonitor).Observe," +
	"internal/campaign.(*Paired).Summary," +
	"internal/engine.(*Engine).Run," +
	"internal/engine.(*Engine).Reset," +
	"internal/engine.(*Engine).Mark," +
	"internal/sketch.(*Sketch).Add," +
	"internal/sketch.(*Sketch).Merge," +
	"internal/sketch.(*Sketch).MarshalBinary," +
	"internal/sketch.(*Weighted).Add," +
	"internal/sketch.(*Weighted).Merge," +
	"internal/sketch.(*Weighted).MarshalBinary," +
	"internal/coord.partitionJob," +
	"internal/coord.mergeJob"

// defaultFirstParty is the import-path prefix of code analysed for
// taint. Standard-library and vendored third-party packages are
// assumed deterministic unless referenced directly through one of the
// taint-source predicates (time.Now, rand.Intn, ...), which fire at
// the calling line in first-party code.
const defaultFirstParty = "repro"

// taintFact marks a function whose result can depend on something
// other than its explicit inputs: the wall clock, the process-global
// randomness source, map iteration order, or scheduling-dependent
// floating-point fold order. Chain explains why, outermost call
// first; the last element names the direct taint source. Elements are
// pre-rendered strings because token positions and objects do not
// survive the package boundary.
type taintFact struct {
	Chain []string
}

func (*taintFact) AFact() {}

func (f *taintFact) String() string {
	if len(f.Chain) == 0 {
		return "tainted"
	}
	return "tainted: " + f.Chain[len(f.Chain)-1]
}

// DetClose computes the interprocedural determinism closure. For
// every function it derives a Deterministic/Tainted verdict: a
// function is tainted if its body trips one of the taint-source
// detectors (the walltime, globalrand, maporder and floatfold
// analyzers re-used as sources) or if it calls a tainted function —
// in this package or, through exported facts and the vet driver's
// dependency-order loading, in any package below it. The declared
// roots (-roots) must be untainted: a tainted root is reported with
// the full call chain down to the source, so one time.Now() three
// helpers deep below campaign.Run names every hop. File-level
// //ppalint:deterministic markers that the closure already covers are
// reported as redundant, as are //ppalint:allow directives that no
// longer suppress anything.
var DetClose = &analysis.Analyzer{
	Name: detCloseName,
	Doc: "verify the interprocedural determinism closure of the declared roots\n\n" +
		"Exports a per-function Deterministic/Tainted fact (tainted by wall-clock\n" +
		"reads, process-global randomness, order-sensitive map iteration and\n" +
		"unordered float accumulation — the walltime/globalrand/maporder/floatfold\n" +
		"detectors as taint sources), propagates it bottom-up across packages, and\n" +
		"requires that the transitive call closure of the declared determinism\n" +
		"roots reaches no tainted function. A tainted root is reported with the\n" +
		"full taint trace. Suppress a source with //ppalint:allow <source> <reason>\n" +
		"on the offending line; that also stops the taint from propagating.\n" +
		"Dynamic calls (interface methods, stored func values) are not resolved:\n" +
		"the closure covers static calls and function references.",
	Run:       runDetClose,
	FactTypes: []analysis.Fact{(*taintFact)(nil)},
}

func init() {
	DetClose.Flags.String("roots", defaultRoots,
		"comma-separated determinism roots: pkgsuffix.Func or pkgsuffix.(*Type).Method")
	DetClose.Flags.String("firstparty", defaultFirstParty,
		"comma-separated import-path prefixes analysed for taint sources")
}

// rootSpec is one parsed root declaration.
type rootSpec struct {
	raw  string
	pkg  string // import-path suffix pattern
	recv string // receiver type name, "" for package-level functions
	fn   string
}

// parseRootSpec parses "pkg/path.Func", "pkg/path.(Type).Method" or
// "pkg/path.(*Type).Method".
func parseRootSpec(s string) (rootSpec, bool) {
	if i := strings.Index(s, ".("); i >= 0 {
		rest := s[i+2:]
		j := strings.Index(rest, ").")
		if j < 0 {
			return rootSpec{}, false
		}
		recv := strings.TrimPrefix(rest[:j], "*")
		fn := rest[j+2:]
		if i == 0 || recv == "" || fn == "" || strings.ContainsAny(fn, ".()") {
			return rootSpec{}, false
		}
		return rootSpec{raw: s, pkg: s[:i], recv: recv, fn: fn}, true
	}
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return rootSpec{}, false
	}
	dot += slash + 1
	pkg, fn := s[:dot], s[dot+1:]
	if pkg == "" || fn == "" || strings.Contains(fn, ".") {
		return rootSpec{}, false
	}
	return rootSpec{raw: s, pkg: pkg, fn: fn}, true
}

// resolve finds the root's *types.Func in pkg, or nil.
func (r rootSpec) resolve(pkg *types.Package) *types.Func {
	if r.recv == "" {
		fn, _ := pkg.Scope().Lookup(r.fn).(*types.Func)
		return fn
	}
	tn, _ := pkg.Scope().Lookup(r.recv).(*types.TypeName)
	if tn == nil {
		return nil
	}
	named, _ := tn.Type().(*types.Named)
	if named == nil {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Name() == r.fn {
			return m
		}
	}
	return nil
}

// callEdge is one static call or function reference inside a body.
type callEdge struct {
	callee *types.Func
	pos    token.Pos
}

// fnNode is one function declaration under analysis.
type fnNode struct {
	obj   *types.Func
	decl  *ast.FuncDecl
	edges []callEdge
	fact  *taintFact
}

// detSourceAnalyzers are the analyzers whose findings seed the taint
// propagation; their allow directives suppress the matching source.
var detSourceAnalyzers = []string{wallTimeName, globalRandName, mapOrderName, floatFoldName, detCloseName}

func runDetClose(pass *analysis.Pass) (interface{}, error) {
	if !firstParty(pass) {
		return nil, nil
	}
	dirs := scanDirectivesFor(pass, detSourceAnalyzers, []string{detCloseName})

	// Collect the package's function declarations with their direct
	// taint sources and outgoing call edges. Test files are skipped:
	// determinism binds production code, and no root closure reaches a
	// test helper.
	var nodes []*fnNode
	byObj := make(map[*types.Func]*fnNode)
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if obj == nil || d.Body == nil {
					continue
				}
				n := &fnNode{obj: obj, decl: d}
				if srcs := scanTaintSources(pass, d.Body, dirs); len(srcs) > 0 {
					s := srcs[0]
					n.fact = &taintFact{Chain: []string{sprintf("%s (%s) %s",
						funcDisplay(obj), posString(pass, s.pos), s.desc)}}
				}
				n.edges = collectEdges(pass, d.Body, obj)
				nodes = append(nodes, n)
				byObj[obj] = n
			case *ast.GenDecl:
				// Package-level initializers are scanned only so allow
				// directives inside them register as used; their taint,
				// if any, has no per-function home.
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							scanTaintSources(pass, v, dirs)
						}
					}
				}
			}
		}
	}

	// Propagate taint to a fixed point: a function calling a tainted
	// function (here or, via imported facts, in a dependency) is
	// tainted, with the callee's chain extended by one hop. Nodes are
	// visited in declaration order and edges in position order, so the
	// chosen witness chain is deterministic.
	importedFact := make(map[*types.Func]*taintFact)
	importedSeen := make(map[*types.Func]bool)
	factFor := func(callee *types.Func) *taintFact {
		if n, ok := byObj[callee]; ok {
			return n.fact
		}
		if !importedSeen[callee] {
			importedSeen[callee] = true
			var tf taintFact
			if pass.ImportObjectFact(callee, &tf) {
				importedFact[callee] = &tf
			}
		}
		return importedFact[callee]
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if n.fact != nil {
				continue
			}
			for _, e := range n.edges {
				t := factFor(e.callee)
				if t == nil {
					continue
				}
				step := sprintf("%s (%s) calls %s", funcDisplay(n.obj), posString(pass, e.pos), funcDisplay(e.callee))
				n.fact = &taintFact{Chain: append([]string{step}, t.Chain...)}
				changed = true
				break
			}
		}
	}
	for _, n := range nodes {
		if n.fact != nil {
			pass.ExportObjectFact(n.obj, n.fact)
		}
	}

	// Verify the declared roots.
	var rootObjs []*types.Func
	for _, raw := range strings.Split(pass.Analyzer.Flags.Lookup("roots").Value.String(), ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		spec, ok := parseRootSpec(raw)
		if !ok {
			pass.Reportf(pass.Files[0].Name.Pos(), "detclose: bad root spec %q (want pkg/path.Func or pkg/path.(*Type).Method)", raw)
			continue
		}
		if !pathMatches(pass.Pkg.Path(), spec.pkg) {
			continue
		}
		obj := spec.resolve(pass.Pkg)
		if obj == nil {
			pass.Reportf(pass.Files[0].Name.Pos(), "detclose: root %q not found in package %s (typo in the roots declaration?)", spec.raw, pass.Pkg.Path())
			continue
		}
		rootObjs = append(rootObjs, obj)
		n := byObj[obj]
		if n == nil || n.fact == nil {
			continue
		}
		pass.Reportf(obj.Pos(),
			"%s is a declared determinism root but its call closure is tainted:\n\t%s\nbreak the chain, or //ppalint:allow <source-analyzer> <reason> at the source line",
			funcDisplay(obj), strings.Join(n.fact.Chain, "\n\t"))
	}

	reportRedundantMarkers(pass, dirs, byObj, rootObjs)
	reportUnusedAllows(pass, dirs)
	return nil, nil
}

// firstParty reports whether the package is in the analysed scope.
func firstParty(pass *analysis.Pass) bool {
	flags := pass.Analyzer.Flags.Lookup("firstparty").Value.String()
	path := pass.Pkg.Path()
	for _, p := range strings.Split(flags, ",") {
		if p = strings.TrimSpace(p); p != "" && (path == p || strings.HasPrefix(path, p+"/")) {
			return true
		}
	}
	return false
}

// collectEdges gathers every static call or reference to a function
// inside body: identifiers and selectors resolving to a *types.Func.
// References count as edges because a stored func value smuggles its
// taint just as a direct call does. Dynamic dispatch through
// interfaces resolves to the interface method, which never carries a
// fact — that hole is documented in the analyzer doc.
func collectEdges(pass *analysis.Pass, body ast.Node, self *types.Func) []callEdge {
	var edges []callEdge
	seen := make(map[*types.Func]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || fn == self || seen[fn] {
			return true
		}
		seen[fn] = true
		edges = append(edges, callEdge{callee: fn, pos: id.Pos()})
		return true
	})
	return edges
}

// funcDisplay renders a function for traces: pkg.Func or
// pkg.(*Type).Method, with only the last import-path element.
func funcDisplay(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	pkg := fn.Pkg().Path()
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[i+1:]
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t, ptr = p.Elem(), "*"
		}
		if named, ok := t.(*types.Named); ok {
			return sprintf("%s.(%s%s).%s", pkg, ptr, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + "." + fn.Name()
}

// posString renders pos as file:line with only the base filename.
func posString(pass *analysis.Pass, pos token.Pos) string {
	p := pass.Fset.Position(pos)
	return sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// reportRedundantMarkers flags //ppalint:deterministic file markers
// the closure machinery has made unnecessary: markers in packages
// already covered by walltime's deterministic package set, and
// markers on files whose every function sits inside the local closure
// of the declared roots — there the root-anchored interprocedural
// check supersedes the file-level comment.
func reportRedundantMarkers(pass *analysis.Pass, dirs *directives, byObj map[*types.Func]*fnNode, roots []*types.Func) {
	inDetSet := pkgInPatterns(pass.Pkg.Path(), defaultDeterministicPackages)

	// Local closure: the roots declared in this package plus every
	// same-package function reachable from them through static edges.
	closure := make(map[*types.Func]bool)
	queue := append([]*types.Func(nil), roots...)
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if closure[obj] {
			continue
		}
		closure[obj] = true
		if n := byObj[obj]; n != nil {
			for _, e := range n.edges {
				if _, local := byObj[e.callee]; local && !closure[e.callee] {
					queue = append(queue, e.callee)
				}
			}
		}
	}

	for f, mpos := range dirs.deterministic {
		if isTestFile(pass.Fset, f) {
			continue
		}
		if inDetSet {
			pass.Reportf(mpos, "//ppalint:deterministic is redundant: package %s is already in the deterministic package set", pass.Pkg.Path())
			continue
		}
		covered, funcs := true, 0
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			funcs++
			obj, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
			if obj == nil || !closure[obj] {
				covered = false
				break
			}
		}
		if funcs > 0 && covered {
			pass.Reportf(mpos, "//ppalint:deterministic is redundant: every function in this file is in the call closure of the declared detclose roots, which is checked interprocedurally")
		}
	}
}

// reportUnusedAllows flags allow directives of the taint-source
// analyzers (and detclose) that suppressed nothing: the construct
// they excused is gone, so the directive is stale and should be
// deleted before it silently excuses a future regression.
func reportUnusedAllows(pass *analysis.Pass, dirs *directives) {
	for _, dir := range dirs.unused() {
		f := enclosingFile(pass, dir.pos)
		if f == nil || isTestFile(pass.Fset, f) {
			continue
		}
		pass.Reportf(dir.pos, "//ppalint:allow %s suppresses nothing on this line; delete the stale directive", dir.analyzer)
	}
}
