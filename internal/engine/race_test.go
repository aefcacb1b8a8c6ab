//go:build race

package engine_test

// raceEnabled reports that the race detector is on; the recycled
// engine grid then runs its -short subset.
const raceEnabled = true
