// Fixture type-checked under example.com/internal/coord, matching the
// framecase analyzer's scope.
package coord

import "errors"

// kind* is a frame-kind enumeration: a package-level const block of
// string constants.
const (
	kindHello = "hello"
	kindData  = "data"
	kindBye   = "bye"
)

// Unrelated non-string consts: not an enumeration framecase tracks.
const (
	limitLow  = 1
	limitHigh = 2
)

func dispatchMissing(k string) int {
	switch k { // want "switch over kind. kinds is not exhaustive: missing kindBye"
	case kindHello:
		return 1
	case kindData:
		return 2
	}
	return 0
}

func dispatchEmptyDefault(k string) int {
	switch k {
	case kindHello:
		return 1
	default: // want "empty default in a switch over kind. kinds silently drops unhandled frames"
	}
	return 0
}

func dispatchExhaustive(k string) int {
	switch k {
	case kindHello, kindData:
		return 1
	case kindBye:
		return 2
	}
	return 0
}

func dispatchDefaultHandled(k string) (int, error) {
	switch k {
	case kindHello:
		return 1, nil
	default:
		return 0, errors.New("unknown kind " + k)
	}
}

func dispatchAllowed(k string) int {
	//ppalint:allow framecase metrics hook only cares about hello frames
	switch k {
	case kindHello:
		return 1
	}
	return 0
}

// Switches over values outside any tracked group are ignored.
func dispatchInt(n int) int {
	switch n {
	case limitLow:
		return 1
	}
	return 0
}

func dispatchLiteral(s string) int {
	switch s {
	case "other":
		return 1
	}
	return 0
}

// An exhaustive switch needs no suppression: the directive is stale.
func dispatchStaleAllow(k string) int {
	//ppalint:allow framecase the switch used to miss kindBye // want "ppalint:allow framecase suppresses nothing on this line"
	switch k {
	case kindHello, kindData, kindBye:
		return 1
	}
	return 0
}
