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
// fold/merge/marshal path, the coordinator's merge/partition half —
// plus the planners and the figure drivers. Each concrete Plan method
// is a root of its own because calls through the Planner interface
// are not resolved. Package parts are path suffixes (pathMatches), so
// the list works under any module path prefix.
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
	"internal/engine.(*Engine).RecordTrajectory," +
	"internal/engine.(*Engine).RunSpliced," +
	"internal/sketch.(*Sketch).Add," +
	"internal/sketch.(*Sketch).Merge," +
	"internal/sketch.(*Sketch).MarshalBinary," +
	"internal/sketch.(*Weighted).Add," +
	"internal/sketch.(*Weighted).Merge," +
	"internal/sketch.(*Weighted).MarshalBinary," +
	"internal/coord.partitionJob," +
	"internal/coord.mergeJob," +
	"internal/plan.(Brute).Plan," +
	"internal/plan.(Corr).Plan," +
	"internal/plan.(DP).Plan," +
	"internal/plan.(Full).Plan," +
	"internal/plan.(Greedy).Plan," +
	"internal/plan.(SA).Plan," +
	"internal/plan.(Structured).Plan," +
	"internal/experiments.Fig7," +
	"internal/experiments.Fig8," +
	"internal/experiments.Fig9," +
	"internal/experiments.Fig10," +
	"internal/experiments.Fig12Q1," +
	"internal/experiments.Fig12Q2," +
	"internal/experiments.Fig13Q1," +
	"internal/experiments.Fig13Q2," +
	"internal/experiments.Fig14a," +
	"internal/experiments.Fig14b," +
	"internal/experiments.Fig14c," +
	"internal/experiments.Fig14d"

// defaultDeterministicPackages are the package-path suffixes whose
// results must be a pure function of their inputs: everything the
// golden-hash and distributed-golden tests pin. Wall-clock reads are
// reported directly only here; internal/coord is absent deliberately,
// since its heartbeat machinery is wall-clock by design and its
// deterministic half is covered by the partitionJob/mergeJob roots.
const defaultDeterministicPackages = "internal/sim,internal/engine,internal/campaign,internal/sketch,internal/plan,internal/cluster"

// firstParty is the module path of the code detclose analyses.
// Standard-library and vendored third-party packages are assumed
// deterministic unless referenced directly through one of the source
// detectors (time.Now, rand.Intn, ...), which fire at the calling line
// in first-party code.
const firstParty = "repro"

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

// DetClose is the one determinism analyzer. In every first-party
// non-test function and package-level initializer it reports each
// direct source at its line: wall-clock reads (walltime; in the
// deterministic packages only), process-global or wall-clock-seeded
// randomness (globalrand), order-sensitive work inside map iteration
// (maporder) and order-dependent floating-point accumulation
// (floatfold). Every source, reported or not, taints its function, and
// so does a call to a tainted function — in this package or, through
// exported facts and the vet driver's dependency-order loading, in
// any package below it. The declared roots (-roots) must be
// untainted: a tainted root is reported with the full call chain down
// to the source, so one time.Now() three helpers deep below
// campaign.Run names every hop. //ppalint:allow directives that no
// longer suppress anything are reported too.
var DetClose = &analysis.Analyzer{
	Name: detCloseName,
	Doc: "report determinism hazards (walltime, globalrand, maporder, floatfold) and verify the call closure of the declared roots\n\n" +
		"Reports each direct source at its line in every first-party function and\n" +
		"package-level initializer: wall-clock reads (walltime, only in the deterministic\n" +
		"packages " + defaultDeterministicPackages + "),\n" +
		"top-level math/rand draws and wall-clock-seeded sources (globalrand),\n" +
		"order-sensitive work inside map iteration — appends not sorted after the loop,\n" +
		"sends, output, string concatenation, Add/Merge/... folds (maporder) — and float\n" +
		"+= / *= into a shared variable from map iteration, a goroutine or an\n" +
		"internal/par worker callback (floatfold). Every source taints its function; the\n" +
		"per-function Deterministic/Tainted fact propagates bottom-up across packages,\n" +
		"and the transitive call closure of the declared determinism roots must reach\n" +
		"no tainted function. A tainted root is reported with the full taint trace.\n" +
		"Suppress a source with //ppalint:allow <source> <reason> on the offending line;\n" +
		"that also stops the taint from propagating. Dynamic calls (interface methods,\n" +
		"stored func values) are not resolved: the closure covers static calls and\n" +
		"function references.",
	Run:       runDetClose,
	FactTypes: []analysis.Fact{(*taintFact)(nil)},
}

func init() {
	DetClose.Flags.String("roots", defaultRoots,
		"comma-separated determinism roots: pkgsuffix.Func or pkgsuffix.(*Type).Method")
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
	edges []callEdge
	fact  *taintFact
}

func runDetClose(pass *analysis.Pass) (interface{}, error) {
	if path := pass.Pkg.Path(); path != firstParty && !strings.HasPrefix(path, firstParty+"/") {
		return nil, nil
	}
	dirs := scanDirectives(pass, detCloseName, wallTimeName, globalRandName, mapOrderName, floatFoldName)
	detPkg := pkgInPatterns(pass.Pkg.Path(), defaultDeterministicPackages)

	// sources returns root's unsuppressed direct sources, reporting each
	// at its line; outside the deterministic packages a wall-clock read
	// only taints.
	sources := func(root ast.Node) []taintSource {
		srcs := scanTaintSources(pass, root, dirs)
		for _, s := range srcs {
			if s.kind != wallTimeName || detPkg {
				pass.Reportf(s.pos, "%s (or //ppalint:allow %s <reason>)", s.msg, s.kind)
			}
		}
		return srcs
	}

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
				n := &fnNode{obj: obj, edges: collectEdges(pass, d.Body, obj)}
				if srcs := sources(d.Body); len(srcs) > 0 {
					n.fact = &taintFact{Chain: []string{sprintf("%s (%s): %s",
						funcDisplay(obj), posString(pass, srcs[0].pos), srcs[0].msg)}}
				}
				nodes = append(nodes, n)
				byObj[obj] = n
			case *ast.GenDecl:
				// Package-level initializers: their sources are reported,
				// but their taint has no per-function home.
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							sources(v)
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
		n := byObj[obj]
		if n == nil || n.fact == nil {
			continue
		}
		pass.Reportf(obj.Pos(),
			"%s is a declared determinism root but its call closure is tainted:\n\t%s\nbreak the chain, or //ppalint:allow <source> <reason> at the source line",
			funcDisplay(obj), strings.Join(n.fact.Chain, "\n\t"))
	}

	dirs.reportUnused(pass)
	return nil, nil
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
