// Package campaign generates and executes Monte-Carlo failure
// campaigns: thousands of seeded, reproducible correlated-failure
// scenarios drawn from a cluster's failure-domain layout, each run as an
// independent engine simulation on a worker pool, with recovery-latency
// and output-loss distributions aggregated per configuration. It is the
// repo's standard scale/perf harness: where the §VI experiments replay
// the paper's fixed failure injections, a campaign sweeps the space of
// correlated failures (single node, k-of-rack bursts, whole-domain
// outages, cascading multi-domain bursts) that the failure-domain model
// makes expressible.
package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Model is a burst model: the shape of one randomized correlated
// failure.
type Model int

const (
	// SingleNode fails one uniformly drawn processing node — the
	// paper's single-failure baseline as a degenerate domain.
	SingleNode Model = iota
	// KOfRack fails a partial blast radius: one rack is drawn, each of
	// its remaining nodes fails with probability Correlation alongside
	// a seed node.
	KOfRack
	// WholeDomain fails every node of one drawn rack — the shared
	// switch/power-feed outage.
	WholeDomain
	// Cascade fails one rack of a drawn zone, then spreads to each
	// sibling rack with probability Correlation, staggered by
	// CascadeLag — a rolling multi-domain burst.
	Cascade
)

// Models lists every burst model.
var Models = []Model{SingleNode, KOfRack, WholeDomain, Cascade}

// DefaultCorrelation is the baseline correlation strength of the
// sweeps (GenSpec.Correlation is honoured verbatim, including 0).
const DefaultCorrelation = 0.5

// String names the model as used by cmd/ppastorm.
func (m Model) String() string {
	switch m {
	case SingleNode:
		return "single"
	case KOfRack:
		return "k-of-rack"
	case WholeDomain:
		return "domain"
	case Cascade:
		return "cascade"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel resolves a model name (as printed by String).
func ParseModel(s string) (Model, error) {
	for _, m := range Models {
		if m.String() == strings.TrimSpace(s) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("campaign: unknown burst model %q (known: single, k-of-rack, domain, cascade)", s)
}

// Wave is one instant of a scenario: a set of nodes failing together.
type Wave struct {
	At    sim.Time
	Nodes []cluster.NodeID
}

// Scenario is one reproducible failure scenario: one or more waves of
// simultaneous node failures.
type Scenario struct {
	Index int
	Model Model
	Label string
	Waves []Wave
	// Weight is the scenario's importance-sampling likelihood ratio:
	// the probability of its burst-join draws under the nominal
	// correlation divided by the probability under the tilted sampler
	// (GenSpec.Tilt). Untilted generation sets 1; a zero value (e.g. a
	// hand-built Scenario literal) is treated as 1 everywhere, so
	// existing callers are unaffected.
	Weight float64
}

// GenSpec controls scenario generation. The zero value is not valid;
// fill at least Scenarios. The optional timing fields are pointers so
// that an explicit zero is distinguishable from "use the default": a
// nil field selects the documented default, while Ptr(0) is honoured
// verbatim (no jitter, injection at the start of the run, simultaneous
// cascade waves) — the same explicit-zero contract Correlation has
// always had.
type GenSpec struct {
	// Seed drives all randomness. Scenario i depends only on Seed+i, so
	// campaigns are reproducible and individual scenarios can be replayed
	// in isolation.
	Seed int64
	// Scenarios is the number of scenarios to generate.
	Scenarios int
	// Model selects the burst shape.
	Model Model
	// FailAt is the base injection time; nil selects the default 30.5
	// virtual seconds. Each scenario jitters it by up to JitterS.
	FailAt *sim.Time
	// JitterS is the injection-time jitter in seconds; nil selects the
	// default 1 (avoids phase-locking failures with checkpoint timers),
	// Ptr(0.0) disables jitter.
	JitterS *float64
	// Correlation in [0,1] is the correlation strength: the probability
	// that a node (KOfRack) or sibling rack (Cascade) joins the burst.
	// Zero is honoured as fully uncorrelated (one node / one rack);
	// DefaultCorrelation is a reasonable sweep baseline.
	Correlation float64
	// CascadeLag is the delay between successive Cascade waves; nil
	// selects the default 2s, Ptr(sim.Time(0)) makes the waves
	// simultaneous.
	CascadeLag *sim.Time
	// CRN switches scenario i's draws to a counter-based splitmix64
	// substream keyed by (Seed, i) — common random numbers. Unlike the
	// default math/rand path, the substream derivation is documented
	// and stable across Go releases, and every campaign cell sharing a
	// seed replays bit-identical failure draws, which is what makes
	// paired head-to-head deltas low-variance. Off by default so
	// existing seeds keep generating the exact scenarios they always
	// have.
	CRN bool
	// Tilt >= 1 turns on importance sampling of rare correlated bursts:
	// each burst-join draw (KOfRack node joins, Cascade sibling rack
	// joins) is taken at the tilted probability q = 1-(1-p)^Tilt
	// instead of the nominal p = Correlation, over-drawing multi-node
	// and multi-rack cascades, and the scenario's Weight records the
	// likelihood ratio so reweighted summaries estimate the nominal
	// distribution. 0 (or 1) disables tilting; values in (0, 1) are
	// rejected. Models without join draws (SingleNode, WholeDomain) are
	// unaffected.
	Tilt float64
}

// Ptr returns a pointer to v — shorthand for GenSpec's explicit
// optional fields, e.g. GenSpec{JitterS: campaign.Ptr(0.0)}.
func Ptr[T any](v T) *T { return &v }

// genParams is GenSpec with the optional fields resolved to concrete
// values.
type genParams struct {
	failAt  sim.Time
	jitterS float64
	lag     sim.Time
}

func (s GenSpec) resolve() genParams {
	p := genParams{failAt: 30.5, jitterS: 1, lag: 2}
	if s.FailAt != nil {
		p.failAt = *s.FailAt
	}
	if s.JitterS != nil {
		p.jitterS = *s.JitterS
	}
	if s.CascadeLag != nil {
		p.lag = *s.CascadeLag
	}
	return p
}

// burstRNG is the draw interface of scenario generation, satisfied by
// both the default *rand.Rand and the CRN splitStream. Generate calls
// it in a fixed order per scenario, so either source yields a
// reproducible scenario from (Seed, index) alone.
type burstRNG interface {
	Float64() float64
	Intn(n int) int
	Perm(n int) []int
}

// stream returns scenario i's random source: the historical math/rand
// stream by default (existing seeds keep their scenarios), or the
// counter-based CRN substream.
func (s GenSpec) stream(i int) burstRNG {
	if s.CRN {
		return newSplitStream(s.Seed, i)
	}
	return rand.New(rand.NewSource(s.Seed + int64(i)*1_000_003))
}

// joiner draws the burst-join Bernoullis of one scenario, tilted to
// probability q = 1-(1-p)^tilt, and accumulates the likelihood ratio
// of the draws it made: p/q per join, (1-p)/(1-q) per non-join. With
// tilt off (0 or 1) q equals p and the weight stays exactly 1.
type joiner struct {
	rng  burstRNG
	p, q float64
	w    float64
}

func newJoiner(rng burstRNG, p, tilt float64) *joiner {
	q := p
	if tilt > 1 {
		q = 1 - math.Pow(1-p, tilt)
	}
	return &joiner{rng: rng, p: p, q: q, w: 1}
}

// join draws one tilted Bernoulli and folds its likelihood ratio into
// the running weight. Degenerate probabilities (0 or 1) tilt to
// themselves, so their factor is exactly 1.
func (j *joiner) join() bool {
	joined := j.rng.Float64() < j.q
	if j.q > 0 && j.q < 1 {
		if joined {
			j.w *= j.p / j.q
		} else {
			j.w *= (1 - j.p) / (1 - j.q)
		}
	}
	return joined
}

// Generate draws spec.Scenarios scenarios against the cluster's
// failure-domain layout. The cluster is only inspected, never mutated;
// node IDs refer to any identically laid-out cluster, so the campaign
// runner can rebuild a fresh cluster per simulation. KOfRack,
// WholeDomain and Cascade require the cluster to have racks
// (cluster.BuildDomains).
func Generate(c *cluster.Cluster, spec GenSpec) ([]Scenario, error) {
	params := spec.resolve()
	if spec.Scenarios <= 0 {
		return nil, fmt.Errorf("campaign: need a positive scenario count, got %d", spec.Scenarios)
	}
	// The spec reaches workers as JSON, so it is outside input. The
	// comparisons are written so that NaN fails them: a NaN time would
	// never be reached and a NaN probability never drawn.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"FailAt", float64(params.failAt)},
		{"JitterS", params.jitterS},
		{"CascadeLag", float64(params.lag)},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return nil, fmt.Errorf("campaign: GenSpec.%s %v must be finite and non-negative", f.name, f.v)
		}
	}
	if !(spec.Correlation >= 0 && spec.Correlation <= 1) {
		return nil, fmt.Errorf("campaign: GenSpec.Correlation %v out of [0,1]", spec.Correlation)
	}
	if !(spec.Tilt == 0 || spec.Tilt >= 1) {
		return nil, fmt.Errorf("campaign: GenSpec.Tilt %v invalid (want 0 to disable, or >= 1)", spec.Tilt)
	}
	proc := c.ProcessingNodes()
	if len(proc) == 0 {
		return nil, fmt.Errorf("campaign: cluster has no processing nodes")
	}
	// Only racks that actually hold nodes can produce a burst.
	var racks []cluster.Rack
	for _, r := range c.Racks() {
		if len(r.Nodes) > 0 {
			racks = append(racks, r)
		}
	}
	if spec.Model != SingleNode && len(racks) == 0 {
		return nil, fmt.Errorf("campaign: model %s needs non-empty racks (call cluster.BuildDomains)", spec.Model)
	}

	out := make([]Scenario, spec.Scenarios)
	for i := range out {
		// Per-scenario RNG: scenario i is a pure function of (Seed, i) —
		// the historical math/rand stream, or the CRN substream.
		rng := spec.stream(i)
		at := params.failAt + sim.Time(rng.Float64()*params.jitterS)
		sc := Scenario{Index: i, Model: spec.Model, Weight: 1}
		switch spec.Model {
		case SingleNode:
			n := proc[rng.Intn(len(proc))].ID
			sc.Label = fmt.Sprintf("node-%d", n)
			sc.Waves = []Wave{{At: at, Nodes: []cluster.NodeID{n}}}
		case KOfRack:
			rack := racks[rng.Intn(len(racks))]
			burst := []cluster.NodeID{rack.Nodes[rng.Intn(len(rack.Nodes))]}
			jn := newJoiner(rng, spec.Correlation, spec.Tilt)
			for _, n := range rack.Nodes {
				if n != burst[0] && jn.join() {
					burst = append(burst, n)
				}
			}
			sc.Weight = jn.w
			sortNodes(burst)
			sc.Label = fmt.Sprintf("rack-%d/k=%d", rack.ID, len(burst))
			sc.Waves = []Wave{{At: at, Nodes: burst}}
		case WholeDomain:
			rack := racks[rng.Intn(len(racks))]
			sc.Label = fmt.Sprintf("rack-%d/all", rack.ID)
			sc.Waves = []Wave{{At: at, Nodes: slices.Clone(rack.Nodes)}}
		case Cascade:
			jn := newJoiner(rng, spec.Correlation, spec.Tilt)
			sc.Label, sc.Waves = genCascade(racks, c.Zones(), jn, at, params.lag)
			sc.Weight = jn.w
		default:
			return nil, fmt.Errorf("campaign: unknown burst model %d", spec.Model)
		}
		out[i] = sc
	}
	return out, nil
}

// genCascade builds a rolling multi-rack burst within one zone, over
// the non-empty racks. The spread draws go through the joiner so a
// tilted sampler over-draws long cascades while the weight records the
// likelihood ratio.
func genCascade(racks []cluster.Rack, zones []int, jn *joiner, at sim.Time, lag sim.Time) (string, []Wave) {
	rng := jn.rng
	// Group racks by zone; fall back to treating all racks as one zone.
	var pool []cluster.Rack
	if len(zones) > 0 {
		zone := zones[rng.Intn(len(zones))]
		for _, r := range racks {
			if r.Zone == zone {
				pool = append(pool, r)
			}
		}
	}
	if len(pool) == 0 {
		pool = racks
	}
	order := rng.Perm(len(pool))
	var waves []Wave
	var labels []string
	for j, idx := range order {
		rack := pool[idx]
		if j > 0 && !jn.join() {
			continue
		}
		waves = append(waves, Wave{At: at + sim.Time(len(waves))*lag, Nodes: slices.Clone(rack.Nodes)})
		labels = append(labels, fmt.Sprintf("rack-%d", rack.ID))
	}
	return "cascade[" + strings.Join(labels, ",") + "]", waves
}

// sampleTaskScenarios draws spec.Scenarios scenarios of every burst
// model and maps each to the set of primary tasks its waves kill under
// the cluster's current placement — the domain-correlated task-failure
// distribution consumed by the *-corr planners (Env.CorrelationSet).
// Replica hosts are deliberately ignored: the correlation-aware
// objective assumes a replicated task survives the burst, which the
// anti-affinity placer makes true by keeping every replica out of its
// primary's rack. Scenarios that hit no primaries are kept; they are
// real probability mass at OF 1.
func sampleTaskScenarios(c *cluster.Cluster, spec GenSpec) ([][]topology.TaskID, error) {
	var out [][]topology.TaskID
	for _, m := range Models {
		s := spec
		s.Model = m
		scs, err := Generate(c, s)
		if err != nil {
			return nil, err
		}
		for _, sc := range scs {
			set := map[topology.TaskID]bool{}
			for _, w := range sc.Waves {
				for _, n := range w.Nodes {
					for _, id := range c.TasksOn(n) {
						set[id] = true
					}
				}
			}
			ids := make([]topology.TaskID, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			out = append(out, ids)
		}
	}
	return out, nil
}

func sortNodes(ns []cluster.NodeID) {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
}
