package main

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/sketch"
)

// sketchSet is the direct drive's own copy of one reduction shard: the
// six summary sketches a campaign keeps per shard (latency, loss, blast
// radius, tentative fraction, corrected fraction, time to correction),
// seeded, fed and serialised the way the campaign's shard aggregator
// does, so that its states merge with campaign.MergeShardStates into
// the same summary a campaign.Run reports. That equality is checked.
type sketchSet struct {
	weighted               bool
	scenarios, unrecovered int
	u                      [6]*sketch.Sketch
	w                      [6]*sketch.Weighted
	// The exact moment sums behind the weighted effective sample size:
	// Σw, Σw², Σwx, Σwx², Σw²x, Σw²x² over (weight, output loss).
	sumW, sumW2, sumWX, sumWX2, sumW2X, sumW2X2 float64
}

const (
	skLatency = iota
	skLoss
	skBlast
	skTentative
	skCorrected
	skT2C
)

func newSketchSet(weighted bool) *sketchSet {
	s := &sketchSet{weighted: weighted}
	for i := range s.u {
		if weighted {
			s.w[i] = sketch.NewSeededWeighted(campaign.SketchK, uint64(i+1))
		} else {
			s.u[i] = sketch.NewSeeded(campaign.SketchK, uint64(i+1))
		}
	}
	return s
}

func (s *sketchSet) addOne(i int, x, w float64) {
	if s.weighted {
		s.w[i].Add(x, w)
	} else {
		s.u[i].Add(x)
	}
}

// add folds one scenario result and returns the number of sketch Add
// calls it made.
func (s *sketchSet) add(r *campaign.ScenarioResult) int {
	w := r.Scenario.Weight
	if w == 0 {
		w = 1
	}
	s.scenarios++
	x := r.OutputLoss
	if s.weighted {
		s.sumW += w
		s.sumW2 += w * w
		s.sumWX += w * x
		s.sumWX2 += w * x * x
		s.sumW2X += w * w * x
		s.sumW2X2 += w * w * x * x
	}
	s.addOne(skLoss, x, w)
	s.addOne(skBlast, float64(r.FailedTasks), w)
	s.addOne(skTentative, r.TentativeFrac, w)
	n := 3
	if r.TentativeFrac > 0 {
		s.addOne(skCorrected, r.CorrectedFrac, w)
		n++
	}
	for _, d := range r.CorrectionDelays {
		s.addOne(skT2C, d, w)
	}
	n += len(r.CorrectionDelays)
	if !r.Recovered {
		s.unrecovered++
		return n
	}
	if r.FailedTasks > 0 {
		s.addOne(skLatency, float64(r.WorstLatency), w)
		n++
	}
	return n
}

// sketchBytes lists a shard state's sketch encodings in sketchSet order.
func sketchBytes(st *campaign.ShardState) [6]*[]byte {
	return [6]*[]byte{&st.Latency, &st.Loss, &st.FailedTasks, &st.Tentative, &st.Corrected, &st.T2C}
}

// state serialises the set as the state of the given shard.
func (s *sketchSet) state(shard int) (campaign.ShardState, error) {
	st := campaign.ShardState{
		Shard: shard, Scenarios: s.scenarios, Unrecovered: s.unrecovered, Weighted: s.weighted,
		SumW: s.sumW, SumW2: s.sumW2, SumWX: s.sumWX, SumWX2: s.sumWX2, SumW2X: s.sumW2X, SumW2X2: s.sumW2X2,
	}
	for i, dst := range sketchBytes(&st) {
		var err error
		if s.weighted {
			*dst, err = s.w[i].MarshalBinary()
		} else {
			*dst, err = s.u[i].MarshalBinary()
		}
		if err != nil {
			return st, fmt.Errorf("marshalling sketch %d of shard %d: %w", i, shard, err)
		}
	}
	return st, nil
}

// decodeSketchSet rebuilds a set from a shard state.
func decodeSketchSet(st *campaign.ShardState) (*sketchSet, error) {
	s := newSketchSet(st.Weighted)
	s.scenarios, s.unrecovered = st.Scenarios, st.Unrecovered
	s.sumW, s.sumW2, s.sumWX, s.sumWX2, s.sumW2X, s.sumW2X2 = st.SumW, st.SumW2, st.SumWX, st.SumWX2, st.SumW2X, st.SumW2X2
	for i, src := range sketchBytes(st) {
		var err error
		if s.weighted {
			err = s.w[i].UnmarshalBinary(*src)
		} else {
			err = s.u[i].UnmarshalBinary(*src)
		}
		if err != nil {
			return nil, fmt.Errorf("unmarshalling sketch %d of shard %d: %w", i, st.Shard, err)
		}
	}
	return s, nil
}

// merge folds o into s.
func (s *sketchSet) merge(o *sketchSet) {
	s.scenarios += o.scenarios
	s.unrecovered += o.unrecovered
	s.sumW += o.sumW
	s.sumW2 += o.sumW2
	s.sumWX += o.sumWX
	s.sumWX2 += o.sumWX2
	s.sumW2X += o.sumW2X
	s.sumW2X2 += o.sumW2X2
	for i := range s.u {
		if s.weighted {
			s.w[i].Merge(o.w[i])
		} else {
			s.u[i].Merge(o.u[i])
		}
	}
}
