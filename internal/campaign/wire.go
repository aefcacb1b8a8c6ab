package campaign

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/topology"
)

// WireSpec is the fully serialisable description of one campaign: the
// environment (EnvSpec with the topology flattened to topology.Spec
// and the placement policy to its name), the scenario-generation
// batches, and the execution parameters. It is the job unit of the
// coordinator/worker protocol (internal/coord): a coordinator ships
// one WireSpec per campaign and every worker rebuilds the identical
// Env, scenario list and Config from it. Scenarios are regenerated
// deterministically from the GenSpec seeds on each side rather than
// shipped — Generate(i) depends only on (cluster layout, Seed, i), so
// the rebuilt campaign is the same campaign on every process.
type WireSpec struct {
	Topo      topology.Spec  `json:"topo"`
	Planner   string         `json:"planner,omitempty"`
	Fraction  float64        `json:"fraction,omitempty"`
	Placement string         `json:"placement,omitempty"`
	Tentative bool           `json:"tentative,omitempty"`
	Layout    cluster.Layout `json:"layout"`

	// Gens are the scenario-generation batches; the campaign's scenario
	// list is their Generate outputs concatenated in order (exactly as a
	// local caller would concatenate them).
	Gens []GenSpec `json:"gens"`

	// Execution parameters, mirroring Config. StopTol rides along so
	// the coordinator's rebuilt Config carries the stop rule; workers
	// ignore it (RunRangeContext never evaluates stop rules — the
	// coordinator owns the decision, see Config.StopTol).
	Horizon  sim.Time `json:"horizon,omitempty"`
	Workers  int      `json:"workers,omitempty"`
	Shards   int      `json:"shards,omitempty"`
	Baseline int      `json:"baseline,omitempty"`
	StopTol  float64  `json:"stop_tol,omitempty"`
}

// NewWireSpec flattens a campaign environment spec and its scenario
// generation batches into the serialisable form. Execution parameters
// (Horizon, Workers, Shards, Baseline) start zero; set them on the
// returned value.
func NewWireSpec(spec EnvSpec, gens []GenSpec) (WireSpec, error) {
	if spec.Topo == nil {
		return WireSpec{}, fmt.Errorf("campaign: no topology")
	}
	if len(gens) == 0 {
		return WireSpec{}, fmt.Errorf("campaign: no scenario generation batches")
	}
	return WireSpec{
		Topo:      topology.ToSpec(spec.Topo),
		Planner:   spec.Planner,
		Fraction:  spec.Fraction,
		Placement: spec.Placement.String(),
		Tentative: spec.Tentative,
		Layout:    spec.Layout,
		Gens:      append([]GenSpec(nil), gens...),
	}, nil
}

// EnvSpec rebuilds the environment spec, parsing the topology and the
// placement policy back from their wire forms.
func (w WireSpec) EnvSpec() (EnvSpec, error) {
	topo, err := topology.FromSpec(w.Topo)
	if err != nil {
		return EnvSpec{}, fmt.Errorf("campaign: wire topology: %w", err)
	}
	placement := cluster.PlacementAntiAffinity
	if w.Placement != "" {
		if placement, err = cluster.ParsePlacementPolicy(w.Placement); err != nil {
			return EnvSpec{}, fmt.Errorf("campaign: wire placement: %w", err)
		}
	}
	return EnvSpec{
		Topo:      topo,
		Planner:   w.Planner,
		Fraction:  w.Fraction,
		Placement: placement,
		Tentative: w.Tentative,
		Layout:    w.Layout,
	}, nil
}

// Config rebuilds the executable campaign: environment, regenerated
// scenario list, and execution parameters. Every process that calls
// Config on the same WireSpec gets the same campaign — the basis of
// the coordinator/worker bit-identity guarantee.
func (w WireSpec) Config() (Config, error) {
	es, err := w.EnvSpec()
	if err != nil {
		return Config{}, err
	}
	env, err := NewEnv(es)
	if err != nil {
		return Config{}, err
	}
	if len(w.Gens) == 0 {
		return Config{}, fmt.Errorf("campaign: wire spec has no scenario generation batches")
	}
	c, err := env.Cluster()
	if err != nil {
		return Config{}, err
	}
	var scenarios []Scenario
	for _, g := range w.Gens {
		scs, err := Generate(c, g)
		if err != nil {
			return Config{}, fmt.Errorf("campaign: wire scenario batch (model %v, seed %d): %w", g.Model, g.Seed, err)
		}
		scenarios = append(scenarios, scs...)
	}
	return Config{
		Setup:     env.Setup,
		Scenarios: scenarios,
		Horizon:   w.Horizon,
		Workers:   w.Workers,
		Shards:    w.Shards,
		Baseline:  w.Baseline,
		StopTol:   w.StopTol,
	}, nil
}
