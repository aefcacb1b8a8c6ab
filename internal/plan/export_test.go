package plan

// SetMemoize switches the memo of every scope the context holds on
// (keeping what it holds) or off (dropping it); scopes the context
// creates later memoize. The tests compare the memoized evaluator
// against the unmemoized one with it.
func (c *Context) SetMemoize(on bool) {
	for _, s := range c.scopes {
		for m := range s.memo {
			switch {
			case !on:
				s.memo[m] = nil
			case s.memo[m] == nil:
				s.memo[m] = map[string]float64{}
			}
		}
	}
}
