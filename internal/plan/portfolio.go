package plan

import (
	"errors"
	"sync"
)

// Portfolio is a meta-planner: it runs a set of planners concurrently
// on the shared context and returns the best plan by worst-case OF,
// ties broken by smaller plan size, then lexicographically smaller task
// set, then planner order. Planners that fail (e.g. brute force on a
// large topology, DP past its state cap) are skipped; Portfolio errors
// only when every inner planner fails.
//
// Because all inner planners share the context's memoized evaluator,
// the portfolio costs far less than the sum of its parts: candidate
// plans probed by one planner are cache hits for the others.
type Portfolio struct {
	// Planners is the set to race; nil selects every registered planner
	// in sorted name order, except portfolios themselves, the
	// brute-force reference (whose exponential sweep would stall the
	// portfolio on topologies approaching its 24-task limit) and the
	// *-corr variants (which optimise the correlation-aware objective,
	// not the worst-case OF the portfolio ranks by); race those
	// explicitly via Planners when that is wanted.
	Planners []Planner
}

// Name implements Planner.
func (Portfolio) Name() string { return "portfolio" }

// Plan implements Planner.
func (pf Portfolio) Plan(c *Context, budget int) (Plan, error) {
	planners := pf.Planners
	if planners == nil {
		for _, name := range Names() {
			p := MustLookup(name)
			switch p.(type) {
			case Portfolio, Brute, Corr:
				continue
			}
			planners = append(planners, p)
		}
	}
	if len(planners) == 0 {
		return Plan{}, errors.New("plan: portfolio has no planners")
	}
	type result struct {
		p   Plan
		err error
	}
	results := make([]result, len(planners))
	var wg sync.WaitGroup
	wg.Add(len(planners))
	for i, pl := range planners {
		go func(i int, pl Planner) {
			defer wg.Done()
			p, err := pl.Plan(c, budget)
			results[i] = result{p: p, err: err}
		}(i, pl)
	}
	wg.Wait()

	// Selection is sequential in planner order, so the outcome does not
	// depend on goroutine scheduling.
	var (
		best   Plan
		bestOF float64
		found  bool
		errs   []error
	)
	for _, r := range results {
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		of := c.OF(r.p)
		if !found || of > bestOF ||
			(of == bestOF && (r.p.Size() < best.Size() ||
				(r.p.Size() == best.Size() && lessIDs(r.p.Tasks(), best.Tasks())))) {
			best, bestOF, found = r.p, of, true
		}
	}
	if !found {
		return Plan{}, errors.Join(errs...)
	}
	return best, nil
}
