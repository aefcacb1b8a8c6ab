//go:build race

package campaign

// raceEnabled reports that the race detector is on; the splice
// equivalence grid then runs its -short subset.
const raceEnabled = true
