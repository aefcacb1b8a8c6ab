// Package rootpkg declares the determinism roots of the detclose
// fixture. Run reaches a wall-clock read two calls down in package
// dep; the diagnostic must carry the full chain.
package rootpkg

import "repro/fixture/dep"

func Run(n int) int { // want "(?s)rootpkg.Run is a declared determinism root.*rootpkg.Run .root.go:[0-9]+. calls dep.Step.*dep.Step .dep.go:[0-9]+. calls dep.stamp.*dep.stamp .dep.go:[0-9]+.: time.Now reads the wall clock"
	return dep.Step(n)
}

// Run2 is clean: Seeded's draw is suppressed at the source and Pure
// is taint-free.
func Run2(n int) int {
	return dep.Seeded() + dep.Pure(n)
}

// Sum is clean: slice iteration order is fixed.
func Sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Sketch is a tiny ordered accumulator.
type Sketch struct{ n float64 }

func (s *Sketch) Add(v float64) { s.n += v }

// Agg folds map values in iteration order: a direct taint source on a
// root method, reported at its line and at the root.
type Agg struct{ sk Sketch }

func (a *Agg) Merge(m map[string]float64) { // want "(?s)Agg..Merge is a declared determinism root.*folds values in map-iteration order"
	for _, v := range m {
		a.sk.Add(v) // want "a.Add folds values in map-iteration order"
	}
}

// Halve carries a stale suppression: nothing on the line below trips
// a detector any more.
func Halve(n int) int {
	//ppalint:allow walltime stale suppression kept by mistake // want "ppalint:allow walltime suppresses nothing on this line"
	return n / 2
}
