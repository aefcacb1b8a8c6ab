package sketch

// NewWeighted returns an empty weighted summary with accuracy
// parameter k (DefaultK when k <= 0) and seed 0.
func NewWeighted(k int) *Weighted { return NewSeededWeighted(k, 0) }
