package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func fixture(parts ...string) string {
	return filepath.Join(append([]string{"testdata", "src"}, parts...)...)
}

// runSources runs detclose's direct source reports over one fixture
// package, with no roots declared.
func runSources(t *testing.T, dir, importPath string) {
	t.Helper()
	linttest.SetFlag(t, lint.DetClose, "roots", "")
	linttest.Run(t, dir, importPath, lint.DetClose)
}

// TestWallTime: wall-clock reads are reported in deterministic
// packages (by import-path suffix) and only taint elsewhere.
func TestWallTime(t *testing.T) {
	runSources(t, fixture("walltime", "inscope"), "repro/internal/engine")
	runSources(t, fixture("walltime", "outofscope"), "repro/other")
}

// TestGlobalRand: top-level math/rand draws and wall-clock-seeded
// sources are reported everywhere outside _test.go files.
func TestGlobalRand(t *testing.T) {
	runSources(t, fixture("globalrand", "a"), "repro/a")
}

// TestMapOrder: order-sensitive bodies of range-over-map loops are
// reported; collect-then-sort, map-to-map and commutative counters
// are not.
func TestMapOrder(t *testing.T) {
	runSources(t, fixture("maporder", "a"), "repro/m")
}

// TestFloatFold: non-associative FP accumulation inside map iteration
// and goroutines is reported; integer sums and loop-local
// accumulators are not.
func TestFloatFold(t *testing.T) {
	runSources(t, fixture("floatfold", "a"), "repro/f")
}

// TestPooledEscape: uses of pooled values after sync.Pool Put or
// free-list put/release are reported; release-after-last-use and
// refreshed handles are not.
func TestPooledEscape(t *testing.T) {
	linttest.Run(t, fixture("pooledescape", "a"), "example.com/p", lint.PooledEscape)
}

// TestDetCloseCrossPackage: a wall-clock read two calls below a
// declared root in a *different* package is reported at the root with
// the full taint chain, proving the fact propagation across package
// boundaries. Outside the deterministic packages that read is not
// reported at its own line, while a map-order fold is. Suppressed
// sources (dep.Seeded) do not propagate, and stale suppressions are
// reported.
func TestDetCloseCrossPackage(t *testing.T) {
	linttest.SetFlag(t, lint.DetClose, "roots",
		"fixture/rootpkg.Run,fixture/rootpkg.Run2,fixture/rootpkg.(*Agg).Merge,fixture/rootpkg.Sum")
	linttest.RunPackages(t, lint.DetClose,
		linttest.Pkg{Dir: fixture("detclose", "dep"), ImportPath: "repro/fixture/dep"},
		linttest.Pkg{Dir: fixture("detclose", "rootpkg"), ImportPath: "repro/fixture/rootpkg"},
	)
}

// TestDetCloseOutOfScope: packages outside the first-party prefix are
// not analysed — a time.Now there produces no taint and no report.
func TestDetCloseOutOfScope(t *testing.T) {
	linttest.Run(t, fixture("detclose", "thirdparty"), "example.com/vendorpkg", lint.DetClose)
}

// TestFrameCase: switches over a frame-kind const group must cover
// every member or carry a non-empty default; empty defaults and
// missing members are reported, annotated partial dispatch is not.
func TestFrameCase(t *testing.T) {
	linttest.Run(t, fixture("framecase", "a"), "example.com/internal/coord", lint.FrameCase)
}

// TestCtxSpawn: goroutines in the coordination layer must pass or
// capture a context.Context; bounded-by-other-means spawns carry an
// allow directive.
func TestCtxSpawn(t *testing.T) {
	linttest.Run(t, fixture("ctxspawn", "a"), "example.com/internal/coord", lint.CtxSpawn)
}

// TestLockHeld: channel ops, defaultless selects and blocking I/O
// while a mutex is held are reported; unlock-before-op, fresh
// goroutines, Cond.Wait and annotated spans are not.
func TestLockHeld(t *testing.T) {
	linttest.Run(t, fixture("lockheld", "a"), "example.com/internal/coord", lint.LockHeld)
}
