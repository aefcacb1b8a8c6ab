// Package ppa is the public API of the PPA reproduction — the Passive
// and Partially Active fault-tolerance framework for massively parallel
// stream processing engines of Su & Zhou, "Tolerating Correlated
// Failures in Massively Parallel Stream Processing Engines" (ICDE
// 2016).
//
// The package re-exports the part of the internal implementation that
// the examples use, and the types its functions name:
//
//   - building query topologies (operators, tasks, partitionings) by
//     hand, and the preset random topologies of the campaigns;
//   - the MC-tree counts;
//   - planning: a planning context for a topology, the planners by
//     registry name (structure-aware, dynamic programming, greedy,
//     ...), the fraction → budget rule and the engine strategy vector
//     of a plan; the context reports a plan's Output Fidelity and
//     Internal Completeness;
//   - the deterministic discrete-event streaming engine with
//     checkpointing, active replication, failure injection, recovery
//     and tentative outputs;
//   - Monte-Carlo failure campaigns: seeded correlated-failure
//     scenarios over a failure-domain tree, run on a worker pool and
//     summarised as recovery-latency, output-loss and answer-quality
//     distributions.
//
// The CLI tools under cmd/ use the internal packages directly for the
// rest (distributed campaigns, variance engineering).
// See the examples/ directory for runnable end-to-end scenarios and
// DESIGN.md for the architecture.
package ppa

import (
	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/mctree"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/topology"
)

// --- Topology model ---

// Topology is a validated task-level query DAG with failure-free stream
// rates. Build one with NewBuilder.
type Topology = topology.Topology

// Builder assembles topologies.
type Builder = topology.Builder

// TaskID identifies a task within a topology.
type TaskID = topology.TaskID

// Merge is the partitioning (§II-A of the paper) where each upstream
// task sends to a single downstream task and each downstream task
// receives from several upstream tasks.
const Merge = topology.Merge

// Independent is the input kind of an operator that unions its input
// streams instead of joining them (§III-A1).
const Independent = topology.Independent

// NewBuilder returns an empty topology builder.
func NewBuilder() *Builder { return topology.NewBuilder() }

// --- MC-trees ---

// CountMCTrees counts MC-tree derivations without enumeration.
func CountMCTrees(t *Topology) float64 { return mctree.Count(t) }

// MinMCTreeSize returns the size of the smallest MC-tree — the minimum
// useful replication budget.
func MinMCTreeSize(t *Topology) int { return mctree.MinTreeSize(t) }

// --- Planning ---

// Plan is a partially active replication plan (the set of tasks chosen
// for active replication): what a Planner returns and PlanContext
// evaluates.
type Plan = plan.Plan

// PlanContext is the planning context of one topology: it evaluates a
// plan's worst-case Output Fidelity (OF) and Internal Completeness (IC)
// and is shared by the planners, which memoize on it.
type PlanContext = plan.Context

// NewPlanContext builds a planning context for the topology.
func NewPlanContext(t *Topology) *PlanContext { return plan.NewContext(t) }

// Planner is a replication-plan optimiser (§IV).
type Planner = plan.Planner

// LookupPlanner returns the planner registered under name: "sa"
// (structure-aware), "sa-ic", "dp", "greedy", ... (see cmd/ppaplan
// -list).
func LookupPlanner(name string) (Planner, bool) { return plan.Lookup(name) }

// PlanBudget converts a replication ratio in [0, 1] (0.5 for PPA-0.5)
// into a budget of actively replicated tasks out of n.
func PlanBudget(n int, frac float64) (int, error) { return plan.Budget(n, frac) }

// --- Cluster ---

// Cluster models processing and standby nodes with task placement and
// a hierarchical failure-domain tree (node -> rack -> zone).
type Cluster = cluster.Cluster

// NodeID identifies a cluster node, as Engine.ScheduleNodeFailures
// takes it.
type NodeID = cluster.NodeID

// NewCluster builds a cluster with the given node counts.
func NewCluster(processing, standby int) *Cluster {
	return cluster.New(processing, standby)
}

// PlacementPolicy selects how active replicas are placed on the standby
// nodes.
type PlacementPolicy = cluster.PlacementPolicy

// Replica placement policies: rack/zone anti-affinity (the default — a
// replica never shares its primary's rack) and the legacy domain-blind
// round-robin.
const (
	PlacementAntiAffinity = cluster.PlacementAntiAffinity
	PlacementRoundRobin   = cluster.PlacementRoundRobin
)

// --- Engine ---

// Engine executes a topology on the deterministic discrete-event
// kernel with PPA fault tolerance.
type Engine = engine.Engine

// EngineSetup describes an engine instance.
type EngineSetup = engine.Setup

// EngineConfig is the engine's fault-tolerance configuration: the
// processing rate, the heartbeat, checkpoint and replica-ack
// intervals, tentative outputs and the window length. The rest of the
// cost model (batch length, network delay, checkpoint, restore and
// take-over costs) is fixed at values calibrated to the paper's nodes.
type EngineConfig = engine.Config

// StrategyCheckpoint is the passive fault-tolerance strategy: a task
// recovers from its latest checkpoint plus upstream buffer replay.
const StrategyCheckpoint = engine.StrategyCheckpoint

// Strategies is the per-task strategy vector of a plan over n tasks:
// the active tasks (Plan.Tasks) get StrategyActive, every other task
// passive.
func Strategies(n int, passive engine.Strategy, active []TaskID) []engine.Strategy {
	return engine.Strategies(n, passive, active)
}

// OperatorFactory builds per-task operator instances.
type OperatorFactory = engine.OperatorFactory

// SourceFactory builds per-task sources.
type SourceFactory = engine.SourceFactory

// Time is virtual time in seconds.
type Time = sim.Time

// NewEngine builds an engine.
func NewEngine(s EngineSetup) (*Engine, error) { return engine.New(s) }

// NewWindowCountFactory builds the synthetic windowed operator of the
// recovery experiments.
func NewWindowCountFactory(windowBatches int, selectivity float64) OperatorFactory {
	return engine.NewWindowCountFactory(windowBatches, selectivity)
}

// NewCountSourceFactory builds a constant-rate unmaterialised source.
func NewCountSourceFactory(perBatch int) SourceFactory {
	return engine.NewCountSourceFactory(perBatch)
}

// --- Failure campaigns ---

// BurstModel is the shape of one randomized correlated failure
// (single node, k-of-rack, whole domain, cascading multi-domain).
type BurstModel = campaign.Model

// BurstWholeDomain is the burst model that fails every node of one
// drawn rack.
const BurstWholeDomain = campaign.WholeDomain

// BurstModels lists every burst model.
func BurstModels() []BurstModel { return campaign.Models }

// FailureScenario is one reproducible multi-wave failure scenario.
type FailureScenario = campaign.Scenario

// ScenarioSpec controls scenario generation (seed, count, burst model,
// correlation strength, injection time). Its optional timing fields are
// pointers: nil selects the documented default.
type ScenarioSpec = campaign.GenSpec

// GenerateScenarios draws seeded failure scenarios against the
// cluster's failure-domain tree.
func GenerateScenarios(c *Cluster, spec ScenarioSpec) ([]FailureScenario, error) {
	return campaign.Generate(c, spec)
}

// CampaignConfig describes a Monte-Carlo failure campaign. Campaigns
// aggregate by streaming: results fold into mergeable quantile
// sketches in scenario order and are then discarded, so memory stays
// flat however many scenarios run. Set KeepResults to retain
// CampaignReport.Results, or OnResult to observe each result (in
// scenario-index order) without retaining it; Shards fixes the
// reduction layout — for a fixed seed and shard count the summary is
// bit-identical at any Workers. StopTol > 0 enables CI-driven early
// stopping: the campaign halts at the first shard-block checkpoint
// where the p95-loss CI half-width is within the tolerance, at the
// same scenario whether run single-process or distributed.
type CampaignConfig = campaign.Config

// CampaignReport is the outcome of a campaign: aggregated
// recovery-latency, output-loss and answer-quality (tentative/
// corrected fraction, time-to-correction) distributions, plus the
// per-scenario results when CampaignConfig.KeepResults is set.
type CampaignReport = campaign.Report

// CampaignResult is one scenario's outcome, as retained in
// CampaignReport.Results or streamed to CampaignConfig.OnResult.
type CampaignResult = campaign.ScenarioResult

// RunCampaign executes every scenario as an independent simulation on a
// worker pool; for a fixed seed (and shard count) the report is
// identical regardless of the worker count. The runner keeps one
// engine per worker and resets it between scenarios (bit-identical to
// a fresh setup). A scenario error aborts the campaign promptly
// without draining the remaining scenarios.
func RunCampaign(cfg CampaignConfig) (*CampaignReport, error) { return campaign.Run(cfg) }

// CampaignEnvSpec describes a reusable campaign environment (topology,
// planner, cluster sizing, domain layout).
type CampaignEnvSpec = campaign.EnvSpec

// CampaignEnv is a reusable campaign environment; its Setup method is
// the CampaignConfig.Setup factory.
type CampaignEnv = campaign.Env

// NewCampaignEnv validates the spec, computes the replication plan and
// fixes the cluster dimensions and domain layout.
func NewCampaignEnv(spec CampaignEnvSpec) (*CampaignEnv, error) { return campaign.NewEnv(spec) }

// PresetTopology generates a named random-topology preset ("small",
// "medium", "large") for campaigns.
func PresetTopology(name string, seed int64) (*Topology, error) {
	return campaign.PresetTopology(name, seed)
}
