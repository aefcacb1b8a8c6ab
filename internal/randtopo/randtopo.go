// Package randtopo generates random query topologies with controllable
// specifications, reproducing the synthetic-topology methodology of
// Su & Zhou (ICDE 2016), §VI-C: operator count, per-operator
// parallelisation degree, workload skewness of the tasks within an
// operator (uniform or Zipfian), structured vs full partitioning, and
// the fraction of join (correlated-input) operators.
package randtopo

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/topology"
)

// Spec controls the random topology generator. The zero value is not
// valid; use DefaultSpec as a starting point.
type Spec struct {
	// Seed drives all randomness; equal specs generate equal topologies.
	Seed int64
	// MinOps and MaxOps bound the operator count (inclusive).
	MinOps, MaxOps int
	// MinPar and MaxPar bound the per-operator parallelisation degree
	// (inclusive).
	MinPar, MaxPar int
	// Skew is the Zipfian parameter s of the task workload distribution
	// within each operator; 0 means uniform workloads (Fig. 14a).
	Skew float64
	// Full selects an all-Full topology; otherwise a structured topology
	// is generated (Fig. 14c).
	Full bool
	// JoinFraction is the fraction of eligible operators made
	// correlated-input joins (Fig. 14d). An operator is eligible when at
	// least two upstream operators are available.
	JoinFraction float64
	// Sources is the number of source operators (default 1; at least 2
	// when JoinFraction > 0 so that joins have two input streams).
	Sources int
	// SourceRate is the per-task source rate (default 1000).
	SourceRate float64
	// MinSelectivity and MaxSelectivity bound operator selectivity
	// (defaults 0.5 and 1.0).
	MinSelectivity, MaxSelectivity float64
}

// DefaultSpec returns the paper's §VI-C baseline specification: 5-10
// operators with parallelisation degree 1-10, uniform workloads,
// structured partitioning and no joins.
func DefaultSpec(seed int64) Spec {
	return Spec{
		Seed:           seed,
		MinOps:         5,
		MaxOps:         10,
		MinPar:         1,
		MaxPar:         10,
		SourceRate:     1000,
		Sources:        1,
		MinSelectivity: 0.5,
		MaxSelectivity: 1.0,
	}
}

func (s *Spec) validate() error {
	if s.MinOps < 2 || s.MaxOps < s.MinOps {
		return fmt.Errorf("randtopo: invalid operator bounds [%d,%d]", s.MinOps, s.MaxOps)
	}
	if s.MinPar < 1 || s.MaxPar < s.MinPar {
		return fmt.Errorf("randtopo: invalid parallelism bounds [%d,%d]", s.MinPar, s.MaxPar)
	}
	if s.JoinFraction < 0 || s.JoinFraction > 1 {
		return fmt.Errorf("randtopo: join fraction %v out of [0,1]", s.JoinFraction)
	}
	if s.Sources == 0 {
		s.Sources = 1
	}
	if s.JoinFraction > 0 && s.Sources < 2 {
		s.Sources = 2
	}
	if s.SourceRate == 0 {
		s.SourceRate = 1000
	}
	if s.MinSelectivity == 0 {
		s.MinSelectivity = 0.5
	}
	if s.MaxSelectivity == 0 {
		s.MaxSelectivity = 1.0
	}
	if s.MinOps <= s.Sources {
		return fmt.Errorf("randtopo: need more than %d operators for %d sources", s.MinOps, s.Sources)
	}
	return nil
}

// ZipfWeights returns n weights following w_i = 1/i^s (i starting at 1),
// normalised to sum to n so that uniform corresponds to all-ones.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] = w[i] * float64(n) / sum
	}
	return w
}

// Generate builds a random topology from the spec. The result is a
// validated DAG: sources first, every non-source operator subscribed to
// one upstream operator (two for joins), partitionings chosen to respect
// the drawn parallelisation degrees.
func Generate(spec Spec) (*topology.Topology, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	nOps := spec.MinOps + rng.Intn(spec.MaxOps-spec.MinOps+1)

	par := make([]int, nOps)
	for i := range par {
		par[i] = spec.MinPar + rng.Intn(spec.MaxPar-spec.MinPar+1)
	}

	// Choose join operators among those with at least two predecessors
	// available.
	isJoin := make([]bool, nOps)
	if spec.JoinFraction > 0 {
		eligible := 0
		for i := spec.Sources; i < nOps; i++ {
			if i >= 2 {
				eligible++
			}
		}
		want := int(math.Round(spec.JoinFraction * float64(eligible)))
		var pool []int
		for i := spec.Sources; i < nOps; i++ {
			if i >= 2 {
				pool = append(pool, i)
			}
		}
		rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
		for _, op := range pool[:min(want, len(pool))] {
			isJoin[op] = true
		}
	}

	b := topology.NewBuilder()
	refs := make([]topology.OpRef, nOps)
	for i := 0; i < nOps; i++ {
		name := fmt.Sprintf("O%d", i+1)
		if i < spec.Sources {
			refs[i] = b.AddSource(name, par[i], spec.SourceRate)
		} else {
			kind := topology.Independent
			if isJoin[i] {
				kind = topology.Correlated
			}
			sel := spec.MinSelectivity + rng.Float64()*(spec.MaxSelectivity-spec.MinSelectivity)
			refs[i] = b.AddOperator(name, par[i], kind, sel)
		}
		if spec.Skew > 0 {
			b.SetWeights(refs[i], ZipfWeights(par[i], spec.Skew))
		}
	}

	for i := spec.Sources; i < nOps; i++ {
		nUp := 1
		if isJoin[i] {
			nUp = 2
		}
		ups := rng.Perm(i)[:nUp]
		for _, u := range ups {
			b.Connect(refs[u], refs[i], pickPartitioning(rng, spec.Full, par[u], par[i]))
		}
	}
	return b.Build()
}

// pickPartitioning chooses a partitioning compatible with the drawn
// parallelisation degrees. Full topologies always use Full; structured
// topologies use merge/split/one-to-one as the degrees allow.
func pickPartitioning(rng *rand.Rand, full bool, up, down int) topology.Partitioning {
	if full {
		return topology.Full
	}
	switch {
	case up == down:
		if rng.Intn(2) == 0 {
			return topology.OneToOne
		}
		return topology.Merge
	case up > down:
		return topology.Merge
	default:
		return topology.Split
	}
}

// WithoutJoins returns a copy of the topology where every
// correlated-input operator is downgraded to independent input,
// preserving structure, parallelism, weights and rates. It enables the
// paper's controlled Fig. 14d comparison: the same topology with and
// without join semantics.
func WithoutJoins(t *topology.Topology) (*topology.Topology, error) {
	spec := topology.ToSpec(t)
	for i := range spec.Operators {
		spec.Operators[i].Kind = ""
	}
	return topology.FromSpec(spec)
}
