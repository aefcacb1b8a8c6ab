package experiments

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/cluster"
)

// DomainSweep is the Fig. 7/8-style sweep over failure domains: for
// each placement policy, planner and burst model, an n-scenario
// Monte-Carlo failure campaign runs on the medium random topology (the
// paper's §VI-C baseline spec), and the p95 worst-task recovery latency
// plus the mean relative output loss are reported, alongside the
// answer-quality axis: the mean tentative output fraction and the mean
// corrected fraction of the tentative/correction pipeline. Where
// Figs. 7-8 replay the paper's two fixed injections (one node, all
// nodes), this sweep covers the correlated-failure space in between:
// partial rack bursts, whole-domain outages and cascading multi-domain
// failures. Sweeping placements × planners puts the headline comparison
// on one chart: domain-blind round-robin replica placement vs rack
// anti-affinity, and the worst-case planners vs the correlation-aware
// *-corr variants. A nil placements slice sweeps both policies.
//
// The sweep reads only each campaign's streamed Summary — per-scenario
// results are never retained — so memory stays flat in n and
// million-scenario cells are purely a wall-clock cost.
func DomainSweep(planners []string, placements []cluster.PlacementPolicy, n int, seed int64) (Result, error) {
	return DomainSweepOpts(planners, placements, n, seed, SweepOptions{})
}

// SweepOptions are DomainSweep's variance-engineering knobs. The zero
// value reproduces the historical sweep exactly.
type SweepOptions struct {
	// CRN generates every cell's scenarios from common-random-number
	// substreams (GenSpec.CRN): all planner × placement cells replay
	// bit-identical failure draws per (model, scenario index). The sweep
	// then appends paired-difference series per non-base cell — Δmean
	// loss and Δp95 latency against the first cell, with 95% CI
	// half-widths — whose variance is far below two independent cells'.
	CRN bool
	// Tilt >= 1 importance-samples rare cascades (GenSpec.Tilt); the
	// reported summaries are reweighted to the nominal correlation.
	Tilt float64
	// StopTol > 0 enables CI-driven early stopping per cell
	// (campaign.Config.StopTol): a cell halts at the first shard-block
	// checkpoint where the p95-loss CI half-width is within StopTol.
	StopTol float64
}

// DomainSweepOpts is DomainSweep with the variance-reduction stack
// switched on per opts: CRN pairing, tilted cascade sampling and
// CI-driven early stopping.
func DomainSweepOpts(planners []string, placements []cluster.PlacementPolicy, n int, seed int64, opts SweepOptions) (Result, error) {
	if len(placements) == 0 {
		placements = cluster.PlacementPolicies
	}
	res := Result{
		Figure: "Fig. D",
		Title:  fmt.Sprintf("Monte-Carlo failure-domain sweep (%d scenarios/cell)", n),
		XLabel: "burst model",
		YLabel: "p95 latency s / mean loss / mean tentative / mean corrected",
	}
	topo, err := campaign.PresetTopology(campaign.TopoMedium, seed)
	if err != nil {
		return Result{}, err
	}
	// With CRN, the first cell of the sweep becomes the head-to-head
	// base: its per-scenario losses and latencies are retained (O(n) per
	// model — a reporting cost, not a campaign cost) and every other
	// cell reports paired-difference series against it.
	type baseMetrics struct {
		loss, lat []float64
		seen      []bool
	}
	var crnBase map[campaign.Model]*baseMetrics
	if opts.CRN {
		crnBase = make(map[campaign.Model]*baseMetrics)
	}
	firstCell := true
	for _, planner := range planners {
		// One env per planner: the plan (and the failure-free baseline)
		// is independent of replica placement, so the placement sweep
		// reuses both via SetupFor.
		env, err := campaign.NewEnv(campaign.EnvSpec{Topo: topo, Planner: planner, Tentative: true})
		if err != nil {
			return Result{}, err
		}
		// The baseline depends only on (planner, horizon), not on
		// placement or burst model: the planner's first cell runs the
		// baseline simulation and every later cell reuses its volume.
		baseline := 0
		sample, err := env.Cluster()
		if err != nil {
			return Result{}, err
		}
		for _, placement := range placements {
			cell := planner + "/" + placement.String()
			lat := Series{Name: cell + "-p95"}
			loss := Series{Name: cell + "-loss"}
			tent := Series{Name: cell + "-tent"}
			corr := Series{Name: cell + "-corr"}
			dloss := Series{Name: cell + "-dp95loss"}
			dlossCI := Series{Name: cell + "-dp95loss-ci"}
			dlat := Series{Name: cell + "-dlat"}
			dlatCI := Series{Name: cell + "-dlat-ci"}
			for _, model := range campaign.Models {
				scenarios, err := campaign.Generate(sample, campaign.GenSpec{
					Seed:        seed,
					Scenarios:   n,
					Model:       model,
					Correlation: campaign.DefaultCorrelation,
					CRN:         opts.CRN,
					Tilt:        opts.Tilt,
				})
				if err != nil {
					return Result{}, err
				}
				cfg := campaign.Config{
					Setup:     env.SetupFor(placement),
					Scenarios: scenarios,
					Horizon:   150,
					Baseline:  baseline,
					StopTol:   opts.StopTol,
				}
				var pairLoss, pairLat *campaign.Paired
				if opts.CRN {
					if firstCell {
						bm := &baseMetrics{
							loss: make([]float64, n),
							lat:  make([]float64, n),
							seen: make([]bool, n),
						}
						crnBase[model] = bm
						cfg.OnResult = func(r campaign.ScenarioResult) {
							i := r.Scenario.Index
							bm.loss[i], bm.lat[i], bm.seen[i] = r.OutputLoss, float64(r.WorstLatency), true
						}
					} else {
						bm := crnBase[model]
						pairLoss, pairLat = campaign.NewPaired(n), campaign.NewPaired(n)
						for i, ok := range bm.seen {
							if ok {
								pairLoss.ObserveBase(i, bm.loss[i])
								pairLat.ObserveBase(i, bm.lat[i])
							}
						}
						cfg.OnResult = func(r campaign.ScenarioResult) {
							i := r.Scenario.Index
							pairLoss.ObserveOther(i, r.OutputLoss)
							pairLat.ObserveOther(i, float64(r.WorstLatency))
						}
					}
				}
				rep, err := campaign.Run(cfg)
				if err != nil {
					return Result{}, fmt.Errorf("experiments: %s/%s campaign: %w", cell, model, err)
				}
				baseline = rep.BaselineSinkTuples
				lat.Points = append(lat.Points, Point{X: model.String(), Y: rep.Summary.Latency.P95})
				loss.Points = append(loss.Points, Point{X: model.String(), Y: rep.Summary.Loss.Mean})
				tent.Points = append(tent.Points, Point{X: model.String(), Y: rep.Summary.TentativeFrac.Mean})
				corr.Points = append(corr.Points, Point{X: model.String(), Y: rep.Summary.CorrectedFrac.Mean})
				if pairLoss != nil {
					ps, pl := pairLoss.Summary(), pairLat.Summary()
					dloss.Points = append(dloss.Points, Point{X: model.String(), Y: ps.DeltaP95})
					dlossCI.Points = append(dlossCI.Points, Point{X: model.String(), Y: ps.DeltaP95CI})
					dlat.Points = append(dlat.Points, Point{X: model.String(), Y: pl.MeanDelta})
					dlatCI.Points = append(dlatCI.Points, Point{X: model.String(), Y: pl.MeanCI})
				}
			}
			res.Series = append(res.Series, lat, loss, tent, corr)
			if len(dloss.Points) > 0 {
				res.Series = append(res.Series, dloss, dlossCI, dlat, dlatCI)
			}
			firstCell = false
		}
	}
	return res, nil
}
