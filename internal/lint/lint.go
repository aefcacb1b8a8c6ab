// Package lint implements the ppalint analyzer suite: first-party
// go/analysis analyzers encoding this repository's determinism and
// safety invariants, the properties the golden-hash, summary-hash and
// distributed-golden tests check after the fact. The analyzers move
// that enforcement to go vet time, where a violation names the exact
// line instead of a flipped digest.
//
// Analyzers (see Analyzers):
//
//	pooledescape use of pooled values after their release
//	detclose     determinism hazards and the closure of declared roots
//	framecase    exhaustive switches over protocol frame kinds
//	ctxspawn     goroutines must receive a context
//	lockheld     no blocking channel op or I/O while holding a mutex
//
// detclose is the one determinism analyzer. In every first-party
// non-test function and package-level initializer it reports four
// kinds of direct source at their line: wall-clock reads (walltime,
// reported in the deterministic packages only), process-global or
// wall-clock-seeded randomness (globalrand), order-sensitive work
// inside map iteration (maporder) and floating-point accumulation in
// nondeterministic order (floatfold). It also propagates a
// per-function Deterministic/Tainted fact bottom-up across packages
// through the vet driver's dependency-order loading, and verifies
// that the transitive call closure of the declared determinism roots
// (campaign.Run/RunRange, the engine step path, the sketch
// fold/merge/marshal path, the planners, the figure drivers, the
// coordinator's merge/partition half) reaches no tainted function.
// See detclose.go.
//
// A finding that is intentional is suppressed in place with a
// directive comment, on the offending line or the line above:
//
//	//ppalint:allow <analyzer-or-source> <reason>
//
// The reason is mandatory: a directive without one does not suppress
// anything and is itself reported, as is a directive that suppresses
// nothing.
package lint

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Analyzers returns the full ppalint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		PooledEscape,
		DetClose,
		FrameCase,
		CtxSpawn,
		LockHeld,
	}
}

const allowPrefix = "//ppalint:allow"

// Analyzer names, shared between the Analyzer literals and their run
// functions (the run functions cannot reference the analyzer vars —
// that would be an initialization cycle). The four source kinds are
// detclose's allow names besides its own.
const (
	pooledEscapeName = "pooledescape"
	detCloseName     = "detclose"
	frameCaseName    = "framecase"
	ctxSpawnName     = "ctxspawn"
	lockHeldName     = "lockheld"

	wallTimeName   = "walltime"
	globalRandName = "globalrand"
	mapOrderName   = "maporder"
	floatFoldName  = "floatfold"
)

// allowDirective is one parsed //ppalint:allow comment with a reason.
type allowDirective struct {
	pos  token.Pos
	name string
	used bool
}

// allowKey locates a directive: the name it allows and its line.
type allowKey struct {
	name string
	file string
	line int
}

// directives indexes one pass's //ppalint:allow comments for a set of
// names. Test files are skipped: no analyzer checks them, so a
// directive there has nothing to suppress.
type directives struct {
	fset  *token.FileSet
	byKey map[allowKey]*allowDirective
	list  []*allowDirective // in scan order: file, then position
}

// scanDirectives parses every comment of the pass's non-test files
// once for the named analyzers, reporting reasonless directives that
// name one of them: they suppress nothing.
func scanDirectives(pass *analysis.Pass, names ...string) *directives {
	d := &directives{fset: pass.Fset, byKey: make(map[allowKey]*allowDirective)}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(c.Text, allowPrefix))
				if len(fields) == 0 || !slices.Contains(names, fields[0]) {
					continue // another analyzer's directive
				}
				if len(fields) < 2 {
					pass.Reportf(c.Pos(), "ppalint:allow %s needs a reason (\"//ppalint:allow %s <why this is safe>\")", fields[0], fields[0])
					continue
				}
				p := d.fset.Position(c.Pos())
				dir := &allowDirective{pos: c.Pos(), name: fields[0]}
				d.byKey[allowKey{dir.name, p.Filename, p.Line}] = dir
				d.list = append(d.list, dir)
			}
		}
	}
	return d
}

// allowed reports whether a finding of the named analyzer (or source)
// at pos is suppressed by a directive on the same line or the line
// immediately above, marking the directive used.
func (d *directives) allowed(name string, pos token.Pos) bool {
	p := d.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		if dir := d.byKey[allowKey{name, p.Filename, line}]; dir != nil {
			dir.used = true
			return true
		}
	}
	return false
}

// reportUnused flags the scanned directives that suppressed nothing:
// the construct they excused is gone, so the directive is stale and
// should be deleted before it silently excuses a future regression.
// Each analyzer calls it at the end of its run.
func (d *directives) reportUnused(pass *analysis.Pass) {
	for _, dir := range d.list {
		if !dir.used {
			pass.Reportf(dir.pos, "//ppalint:allow %s suppresses nothing on this line; delete the stale directive", dir.name)
		}
	}
}

// isTestFile reports whether the file's name ends in _test.go.
// Determinism invariants bind production code; tests draw wall-clock
// deadlines and throwaway randomness legitimately.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// pathMatches reports whether pkgpath equals pattern or ends in
// "/"+pattern — suffix matching on whole path elements, so package
// lists and root specs work for any module path prefix.
func pathMatches(pkgpath, pattern string) bool {
	return pkgpath == pattern || strings.HasSuffix(pkgpath, "/"+pattern)
}

// pkgInPatterns reports whether pkgpath matches any pattern in the
// comma-separated list, such as the deterministic package set.
func pkgInPatterns(pkgpath, patterns string) bool {
	for _, p := range strings.Split(patterns, ",") {
		if pathMatches(pkgpath, p) {
			return true
		}
	}
	return false
}
