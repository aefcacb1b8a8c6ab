package mctree

import "repro/internal/topology"

// IsStructuredTopology reports whether Full partitioning appears only on
// edges into sink operators.
func IsStructuredTopology(t *topology.Topology) bool {
	for _, e := range t.Edges {
		if e.Part == topology.Full && !t.IsSink(e.To) {
			return false
		}
	}
	return true
}
