package queries

import (
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/topology"
)

// Fig6Params configures the synthetic recovery-efficiency topology of
// §VI-A (Fig. 6): one source operator with 16 tasks on 4 nodes feeding
// a chain of 4 synthetic operators with 8/4/2/1 tasks on 15 nodes, plus
// 15 standby nodes for checkpoints and active replicas.
type Fig6Params struct {
	// RatePerTask is the source rate in tuples per second per source
	// task (paper: 1000 or 2000).
	RatePerTask int
	// WindowBatches is the sliding window of the synthetic operators in
	// batches (paper: 10 s or 30 s with a 1 s slide).
	WindowBatches int
	// Selectivity of the synthetic operators (paper: 0.5).
	Selectivity float64
}

func (p *Fig6Params) defaults() {
	if p.RatePerTask == 0 {
		p.RatePerTask = 1000
	}
	if p.WindowBatches == 0 {
		p.WindowBatches = 30
	}
	if p.Selectivity == 0 {
		p.Selectivity = 0.5
	}
}

// Fig6 bundles the synthetic topology with its cluster layout.
type Fig6 struct {
	Topo *topology.Topology
	Clus *cluster.Cluster
	// SyntheticNodes are the 15 processing nodes hosting the synthetic
	// operator tasks; the correlated-failure experiment kills exactly
	// these.
	SyntheticNodes []cluster.NodeID
	// SyntheticTasks are the 15 tasks of the four synthetic operators.
	SyntheticTasks []topology.TaskID
	params         Fig6Params
}

// NewFig6 builds the topology, the 4+15+15 node cluster and the
// placement of §VI-A.
func NewFig6(p Fig6Params) (*Fig6, error) {
	p.defaults()
	b := topology.NewBuilder()
	src := b.AddSource("source", 16, float64(p.RatePerTask))
	o1 := b.AddOperator("O1", 8, topology.Independent, p.Selectivity)
	o2 := b.AddOperator("O2", 4, topology.Independent, p.Selectivity)
	o3 := b.AddOperator("O3", 2, topology.Independent, p.Selectivity)
	o4 := b.AddOperator("O4", 1, topology.Independent, p.Selectivity)
	b.Connect(src, o1, topology.Merge) // each O1 task reads two source tasks
	b.Connect(o1, o2, topology.Merge)
	b.Connect(o2, o3, topology.Merge)
	b.Connect(o3, o4, topology.Merge)
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}

	// 4 source nodes + 15 synthetic nodes + 15 standby nodes.
	clus := cluster.New(19, 15)
	f := &Fig6{Topo: topo, Clus: clus, params: p}
	// 16 source tasks spread over 4 nodes.
	for i, id := range topo.TasksOf(0) {
		clus.Place(id, cluster.NodeID(i%4))
	}
	// 15 synthetic tasks, one per node 4..18.
	node := 4
	for op := 1; op <= 4; op++ {
		for _, id := range topo.TasksOf(op) {
			clus.Place(id, cluster.NodeID(node))
			f.SyntheticNodes = append(f.SyntheticNodes, cluster.NodeID(node))
			f.SyntheticTasks = append(f.SyntheticTasks, id)
			node++
		}
	}
	return f, nil
}

// Setup assembles the engine setup for the experiment with the given
// engine config and per-task strategies.
func (f *Fig6) Setup(cfg engine.Config, strategies []engine.Strategy) engine.Setup {
	if cfg.WindowBatches == 0 {
		cfg.WindowBatches = f.params.WindowBatches
	}
	return engine.Setup{
		Topology: f.Topo,
		Cluster:  f.Clus,
		Config:   cfg,
		Sources: map[int]engine.SourceFactory{
			0: engine.NewCountSourceFactory(f.params.RatePerTask),
		},
		Operators: map[int]engine.OperatorFactory{
			1: engine.NewWindowCountFactory(f.params.WindowBatches, f.params.Selectivity),
			2: engine.NewWindowCountFactory(f.params.WindowBatches, f.params.Selectivity),
			3: engine.NewWindowCountFactory(f.params.WindowBatches, f.params.Selectivity),
			4: engine.NewWindowCountFactory(f.params.WindowBatches, f.params.Selectivity),
		},
		Strategies: strategies,
	}
}
