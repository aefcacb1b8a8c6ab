// Package linttest is a self-contained analysistest-style harness for
// the ppalint analyzers. It loads fixture directories as packages,
// type-checks them against the standard library with the source
// importer (no network, no export data), runs an analyzer, and
// compares its diagnostics with expectation comments in the fixtures:
//
//	work()        // want "regexp matching the diagnostic"
//	// want+2 "regexp"      <- expectation for the line 2 below, used when
//	highlight()   //           that line ends in a directive comment
//
// Several quoted regexps on one want comment expect several
// diagnostics on that line. Every diagnostic must be expected and
// every expectation matched, or the test fails with a per-line diff.
//
// RunPackages loads several fixture packages in dependency order
// against a shared fact store, exercising cross-package fact
// propagation (the detclose analyzer's interprocedural closure) the
// same way the vet driver does: facts exported while analyzing a
// dependency are importable while analyzing its dependents, keyed by
// the identical types.Object since the type-checked packages are
// shared rather than re-imported from export data.
//
// The vendored x/tools subset (copied from the Go toolchain's own
// cmd/vendor tree) deliberately excludes go/analysis/analysistest —
// it drags in go/packages and a module loader that need network or
// export data; this harness covers the needed slice of it offline.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Pkg is one fixture package for RunPackages: a directory loaded
// under an import path. The import path matters twice: path-scoped
// analyzers key their scope off it, and later packages import earlier
// ones by it.
type Pkg struct {
	Dir        string
	ImportPath string
}

// expectation is one `want` regexp anchored to a fixture line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`want(\+\d+)?((?:\s+"(?:[^"\\]|\\.)*")+)`)

// SetFlag sets an analyzer flag for the duration of the test,
// restoring the previous value on cleanup. Analyzer flag sets are
// package-level state, so tests that override them must restore them
// for the rest of the suite.
func SetFlag(t *testing.T, a *analysis.Analyzer, name, value string) {
	t.Helper()
	f := a.Flags.Lookup(name)
	if f == nil {
		t.Fatalf("linttest: analyzer %s has no flag %q", a.Name, name)
	}
	prev := f.Value.String()
	if err := a.Flags.Set(name, value); err != nil {
		t.Fatalf("linttest: setting %s.%s=%q: %v", a.Name, name, value, err)
	}
	t.Cleanup(func() { _ = a.Flags.Set(name, prev) })
}

// Run loads dir as one package under importPath, runs a, and checks
// diagnostics against the fixtures' want comments.
func Run(t *testing.T, dir, importPath string, a *analysis.Analyzer) {
	t.Helper()
	RunPackages(t, a, Pkg{Dir: dir, ImportPath: importPath})
}

// RunPackages loads the fixture packages in slice order — which must
// be dependency order — runs a over each against a shared fact store,
// and checks the union of diagnostics against the union of want
// comments.
func RunPackages(t *testing.T, a *analysis.Analyzer, pkgs ...Pkg) {
	t.Helper()
	if len(a.Requires) > 0 {
		t.Fatalf("linttest: analyzer %s requires other analyzers; the harness runs standalone analyzers only", a.Name)
	}
	fset := token.NewFileSet()
	store := newFactStore()
	byPath := make(map[string]*types.Package)
	imp := &chainImporter{
		fixtures: byPath,
		fallback: importer.ForCompiler(fset, "source", nil),
	}

	var diags []analysis.Diagnostic
	var allFiles []*ast.File
	for _, p := range pkgs {
		files := parseDir(t, fset, p.Dir)
		allFiles = append(allFiles, files...)

		conf := types.Config{
			Importer: imp,
			Error:    func(error) {}, // collect diagnostics even on type errors
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Logf("linttest: type errors in %s (continuing): %v", p.Dir, err)
		}
		byPath[p.ImportPath] = pkg

		pass := &analysis.Pass{
			Analyzer:          a,
			Fset:              fset,
			Files:             files,
			Pkg:               pkg,
			TypesInfo:         info,
			TypesSizes:        types.SizesFor("gc", "amd64"),
			ResultOf:          map[*analysis.Analyzer]interface{}{},
			Report:            func(d analysis.Diagnostic) { diags = append(diags, d) },
			ImportObjectFact:  store.importObjectFact,
			ImportPackageFact: store.importPackageFact,
			ExportObjectFact:  store.exportObjectFact,
			ExportPackageFact: func(f analysis.Fact) { store.exportPackageFact(pkg, f) },
			AllObjectFacts:    func() []analysis.ObjectFact { return nil },
			AllPackageFacts:   func() []analysis.PackageFact { return nil },
			ReadFile:          os.ReadFile,
		}
		if _, err := a.Run(pass); err != nil {
			t.Fatalf("linttest: analyzer %s on %s: %v", a.Name, p.ImportPath, err)
		}
	}

	expects := parseWants(t, fset, allFiles)
	var unexpected []string
	for _, d := range diags {
		p := fset.Position(d.Pos)
		found := false
		for _, e := range expects {
			if e.matched || e.file != p.Filename || e.line != p.Line {
				continue
			}
			if e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			unexpected = append(unexpected, fmt.Sprintf("%s:%d: unexpected diagnostic: %s", filepath.Base(p.Filename), p.Line, d.Message))
		}
	}
	var unmatched []string
	for _, e := range expects {
		if !e.matched {
			unmatched = append(unmatched, fmt.Sprintf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(e.file), e.line, e.re))
		}
	}
	sort.Strings(unexpected)
	sort.Strings(unmatched)
	for _, m := range append(unexpected, unmatched...) {
		t.Error(m)
	}
}

// parseDir parses every .go file in dir.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: reading fixtures: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("linttest: parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("linttest: no fixtures in %s", dir)
	}
	return files
}

// chainImporter resolves already-loaded fixture packages by import
// path and everything else (the standard library) via the source
// importer.
type chainImporter struct {
	fixtures map[string]*types.Package
	fallback types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.fixtures[path]; ok {
		return p, nil
	}
	return c.fallback.Import(path)
}

// factStore implements the pass fact callbacks over shared
// types.Object identity: fixture packages are type-checked once and
// shared via chainImporter, so a dependent package's Uses resolve to
// the very objects the dependency exported facts on.
type factStore struct {
	obj map[objFactKey]analysis.Fact
	pkg map[pkgFactKey]analysis.Fact
}

type objFactKey struct {
	obj types.Object
	t   reflect.Type
}

type pkgFactKey struct {
	pkg *types.Package
	t   reflect.Type
}

func newFactStore() *factStore {
	return &factStore{
		obj: make(map[objFactKey]analysis.Fact),
		pkg: make(map[pkgFactKey]analysis.Fact),
	}
}

func (s *factStore) exportObjectFact(obj types.Object, f analysis.Fact) {
	s.obj[objFactKey{obj, reflect.TypeOf(f)}] = f
}

func (s *factStore) importObjectFact(obj types.Object, f analysis.Fact) bool {
	v, ok := s.obj[objFactKey{obj, reflect.TypeOf(f)}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(v).Elem())
	return true
}

func (s *factStore) exportPackageFact(pkg *types.Package, f analysis.Fact) {
	s.pkg[pkgFactKey{pkg, reflect.TypeOf(f)}] = f
}

func (s *factStore) importPackageFact(pkg *types.Package, f analysis.Fact) bool {
	v, ok := s.pkg[pkgFactKey{pkg, reflect.TypeOf(f)}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(v).Elem())
	return true
}

// parseWants extracts want / want-next expectations from all fixture
// comments.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				i := strings.Index(text, "want")
				if i < 0 {
					continue
				}
				m := wantRE.FindStringSubmatch(text[i:])
				if m == nil {
					continue
				}
				p := fset.Position(c.Pos())
				line := p.Line
				if m[1] != "" {
					n, err := strconv.Atoi(m[1][1:])
					if err != nil {
						t.Fatalf("linttest: bad want offset %q at %s", m[1], p)
					}
					line += n
				}
				for _, q := range regexp.MustCompile(`"(?:[^"\\]|\\.)*"`).FindAllString(m[2], -1) {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("linttest: bad want string %s at %s: %v", q, p, err)
					}
					re, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("linttest: bad want regexp %q at %s: %v", s, p, err)
					}
					out = append(out, &expectation{file: p.Filename, line: line, re: re})
				}
			}
		}
	}
	return out
}
