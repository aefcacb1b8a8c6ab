//go:build !race

package plan

// raceEnabled reports that the race detector is on; the reference
// comparison of the Corr climb then runs every eighth topology.
const raceEnabled = false
