package plan

import (
	"fmt"
	"sort"
)

// Planner is the uniform interface of every replication-plan optimiser:
// given a shared planning context and a budget of actively replicated
// tasks, produce a plan. Implementations are stateless option structs —
// one Planner value may plan on any number of contexts, each on its own
// goroutine. Plan runs on its caller's goroutine.
type Planner interface {
	// Name is the planner's registry name (e.g. "dp", "sa", "greedy").
	Name() string
	// Plan computes a replication plan within the budget.
	Plan(c *Context, budget int) (Plan, error)
}

// registry is the fixed planner table, keyed by Name.
var registry = func() map[string]Planner {
	m := map[string]Planner{}
	for _, p := range []Planner{
		DP{}, Greedy{}, SA{}, SA{Metric: MetricIC}, Structured{}, Full{}, Brute{},
		// Correlation-aware variants: inner planner seeds,
		// hill-climbing under the context's domain-correlated failure
		// distribution refines (see corr.go).
		Corr{Inner: DP{}}, Corr{Inner: Structured{}}, Corr{Inner: SA{}},
	} {
		m[p.Name()] = p
	}
	return m
}()

// Lookup returns the registered planner with the given name.
func Lookup(name string) (Planner, bool) {
	p, ok := registry[name]
	return p, ok
}

// MustLookup returns the registered planner or panics; for tests and
// internal call sites that name built-in planners.
func MustLookup(name string) Planner {
	p, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("plan: unknown planner %q", name))
	}
	return p
}

// Names lists the registered planner names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
