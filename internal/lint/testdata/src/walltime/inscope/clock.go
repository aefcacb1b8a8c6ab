// Fixture type-checked under the import path repro/internal/engine,
// which matches detclose's deterministic package set, where wall-clock
// reads are reported at their line.
package engine

import "time"

func now() time.Time {
	return time.Now() // want "time.Now reads the wall clock in deterministic code"
}

func wait() {
	time.Sleep(time.Millisecond) // want "time.Sleep reads the wall clock"
}

func elapsed(t time.Time) time.Duration {
	return time.Since(t) // want "time.Since reads the wall clock"
}

func timer() {
	_ = time.NewTimer(time.Second)  // want "time.NewTimer reads the wall clock"
	_ = time.NewTicker(time.Second) // want "time.NewTicker reads the wall clock"
	<-time.After(time.Second)       // want "time.After reads the wall clock"
}

// Storing the function reference smuggles the same nondeterminism.
var clock = time.Now // want "time.Now reads the wall clock"

func suppressed() time.Time {
	return time.Now() //ppalint:allow walltime demo fixture exercising the suppression path
}

func suppressedAbove() {
	//ppalint:allow walltime reason on the line above also suppresses
	time.Sleep(time.Millisecond)
}

// want+2 "ppalint:allow walltime needs a reason"
//
//ppalint:allow walltime
var badDirective = time.Now // want "time.Now reads the wall clock"

// Virtual-time types and conversions stay fine: only wall-clock reads
// are forbidden.
func durationsOK(d time.Duration) time.Duration { return d * 2 }
