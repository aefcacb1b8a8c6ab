package campaign

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/randtopo"
	"repro/internal/topology"
)

// EnvSpec describes a campaign environment: a topology executed with
// the synthetic count workload (constant-rate sources, windowed
// operators — the §VI-A methodology generalised to arbitrary DAGs),
// placed on a domain-structured cluster, protected by a PPA plan.
type EnvSpec struct {
	// Topo is the query topology (required).
	Topo *topology.Topology
	// Planner is a plan-registry name ("sa", "greedy", "dp", ...); ""
	// disables active replication (pure checkpoint recovery). The
	// *-corr variants plan against a domain-correlated failure
	// distribution sampled from this environment's own cluster layout:
	// CorrelationSet(corrScenarios, corrSeed).
	Planner string
	// Fraction is the actively replicated fraction of tasks for Planner,
	// in [0, 1] (default 0.3; zero selects the default).
	Fraction float64
	// Placement selects how active replicas are placed on standby
	// nodes; the zero value is cluster.PlacementAntiAffinity (a replica
	// never shares its primary's rack). cluster.PlacementRoundRobin
	// reproduces the legacy domain-blind placement for comparison
	// sweeps.
	Placement cluster.PlacementPolicy
	// Tentative enables the tentative-output/correction pipeline
	// (engine.Config.TentativeOutputs): during failures the surviving
	// topology keeps producing tentative-marked results, and recovered
	// tasks emit amendment corrections. The campaign accuracy metrics
	// (tentative fraction, corrected fraction, time-to-correction) are
	// all zero without it. Failure-free runs are unaffected.
	Tentative bool
	// Layout is the failure-domain layout; the zero value scales
	// DefaultLayout to ~4 processing nodes per rack.
	Layout cluster.Layout
}

// Fixed environment parameters: primary tasks per processing node;
// the size (per burst model) and seed of the correlated-failure sample
// the *-corr planners optimise; and the engine's window in batches and
// checkpoint interval in seconds. The sampled sets are deduplicated,
// so planning cost grows with distinct bursts, not with corrScenarios.
// windowBatches sizes the operators' sliding windows and the engine's
// source-replay window alike, so the two can never diverge.
const (
	tasksPerNode       = 2
	corrScenarios      = 24
	corrSeed           = 1
	windowBatches      = 10
	checkpointInterval = 15
)

// Env is a reusable campaign environment. The expensive, immutable
// parts (topology, plan, factories) are computed once; Setup rebuilds
// the mutable cluster per simulation.
type Env struct {
	spec       EnvSpec
	strategies []engine.Strategy
	sources    map[int]engine.SourceFactory
	operators  map[int]engine.OperatorFactory
	processing int
	standby    int
	layout     cluster.Layout
}

// NewEnv validates the spec, computes the replication plan and the
// operator factories, and fixes the cluster dimensions and domain
// layout.
func NewEnv(spec EnvSpec) (*Env, error) {
	if spec.Topo == nil {
		return nil, fmt.Errorf("campaign: no topology")
	}
	if spec.Fraction == 0 {
		spec.Fraction = 0.3
	}
	n := spec.Topo.NumTasks()
	budget, err := plan.Budget(n, spec.Fraction)
	if err != nil {
		return nil, fmt.Errorf("campaign: EnvSpec.Fraction: %w", err)
	}
	env := &Env{
		spec:       spec,
		processing: max(2, (n+tasksPerNode-1)/tasksPerNode),
		sources:    make(map[int]engine.SourceFactory),
		operators:  make(map[int]engine.OperatorFactory),
	}
	env.standby = max(2, env.processing/2)
	env.layout = spec.Layout
	if env.layout.Zones == 0 {
		env.layout = cluster.DefaultLayout()
		env.layout.RacksPerZone = max(1, int(math.Ceil(float64(env.processing)/float64(env.layout.Zones*4))))
	}

	for op, o := range spec.Topo.Ops {
		if spec.Topo.IsSource(op) {
			per := int(o.SourceRate) // an engine batch lasts one second
			if per <= 0 {
				per = 1000
			}
			env.sources[op] = engine.NewCountSourceFactory(per)
		} else {
			env.operators[op] = engine.NewWindowCountFactory(windowBatches, o.Selectivity)
		}
	}

	var active []topology.TaskID
	if spec.Planner != "" {
		pl, ok := plan.Lookup(spec.Planner)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown planner %q (registered: %v)", spec.Planner, plan.Names())
		}
		ctx := plan.NewContext(spec.Topo)
		if strings.HasSuffix(spec.Planner, "-corr") {
			set, err := env.CorrelationSet(corrScenarios, corrSeed)
			if err != nil {
				return nil, err
			}
			if err := ctx.SetScenarios(set); err != nil {
				return nil, err
			}
		}
		p, err := pl.Plan(ctx, budget)
		if err != nil {
			return nil, fmt.Errorf("campaign: %s planning: %w", spec.Planner, err)
		}
		active = p.Tasks()
	}
	env.strategies = engine.Strategies(n, engine.StrategyCheckpoint, active)
	return env, nil
}

// CorrelationSet samples the environment's domain-correlated failure
// distribution: scenarios draws of every burst model, seeded by seed,
// against the environment's own cluster layout and primary placement,
// each mapped to the set of tasks it kills. Installed on a planning
// context, it makes the *-corr planners optimise the failures this
// environment will actually inject.
func (env *Env) CorrelationSet(scenarios int, seed int64) (*plan.ScenarioSet, error) {
	c, err := env.Cluster()
	if err != nil {
		return nil, err
	}
	sets, err := sampleTaskScenarios(c, GenSpec{
		Seed:        seed,
		Scenarios:   scenarios,
		Correlation: DefaultCorrelation,
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: sampling correlation distribution: %w", err)
	}
	return plan.NewScenarioSet(env.spec.Topo.NumTasks(), sets)
}

// Cluster builds a fresh domain-structured cluster with the environment
// layout and round-robin placement. Every call yields an identical
// layout, so scenario node IDs are portable across simulations.
func (env *Env) Cluster() (*cluster.Cluster, error) {
	c := cluster.New(env.processing, env.standby)
	if err := c.BuildDomains(env.layout); err != nil {
		return nil, err
	}
	if err := c.PlaceRoundRobin(env.spec.Topo); err != nil {
		return nil, err
	}
	return c, nil
}

// Setup implements Config.Setup: a fresh engine setup per simulation,
// using the spec's replica placement policy.
func (env *Env) Setup() (engine.Setup, error) {
	return env.setup(env.spec.Placement)
}

// SetupFor returns a Config.Setup factory with the replica placement
// policy overridden. The replication plan depends only on the topology
// and planner, never on replica placement, so one Env can serve a
// placement sweep without re-planning per policy.
func (env *Env) SetupFor(placement cluster.PlacementPolicy) func() (engine.Setup, error) {
	return func() (engine.Setup, error) { return env.setup(placement) }
}

func (env *Env) setup(placement cluster.PlacementPolicy) (engine.Setup, error) {
	c, err := env.Cluster()
	if err != nil {
		return engine.Setup{}, err
	}
	return engine.Setup{
		Topology: env.spec.Topo,
		Cluster:  c,
		Config: engine.Config{
			CheckpointInterval: checkpointInterval,
			TentativeOutputs:   env.spec.Tentative,
			WindowBatches:      windowBatches,
		},
		Sources:    env.sources,
		Operators:  env.operators,
		Strategies: append([]engine.Strategy(nil), env.strategies...),
		Placement:  placement,
	}, nil
}

// Topology preset names for cmd/ppastorm and the experiments.
const (
	TopoSmall  = "small"
	TopoMedium = "medium"
	TopoLarge  = "large"
)

// PresetTopology generates a named random-topology preset: small (5-6
// ops, parallelism 1-4), medium (the paper's §VI-C baseline: 5-10 ops,
// parallelism 1-10) and large (10-14 ops, parallelism 6-16).
func PresetTopology(name string, seed int64) (*topology.Topology, error) {
	spec := randtopo.DefaultSpec(seed)
	switch name {
	case TopoSmall:
		spec.MinOps, spec.MaxOps = 5, 6
		spec.MinPar, spec.MaxPar = 1, 4
	case TopoMedium:
		// the §VI-C baseline
	case TopoLarge:
		spec.MinOps, spec.MaxOps = 10, 14
		spec.MinPar, spec.MaxPar = 6, 16
	default:
		return nil, fmt.Errorf("campaign: unknown topology preset %q (known: small, medium, large)", name)
	}
	return randtopo.Generate(spec)
}
