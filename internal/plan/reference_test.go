package plan

import "repro/internal/topology"

// refOF is a reference of Output Fidelity written straight from §III:
// it propagates ILout (Eqs. 1–3) under the failure set and folds the
// sink losses into OF (Eq. 4).
func refOF(t *topology.Topology, failed []bool) float64 {
	il := make([]float64, t.NumTasks())
	inputLoss := func(in topology.InputStream) float64 { // Eq. 1
		var num, den float64
		for _, sub := range in.Subs {
			num, den = num+sub.Rate*il[sub.From], den+sub.Rate
		}
		if den == 0 {
			return 1
		}
		return num / den
	}
	for _, op := range t.OpOrder() {
		for _, id := range t.TasksOf(op) {
			ins := t.InputsOf(id)
			prod, num, den := 1.0, 0.0, 0.0
			for _, in := range ins {
				prod *= 1 - inputLoss(in)
				num, den = num+in.Rate()*inputLoss(in), den+in.Rate()
			}
			switch {
			case failed[id]:
				il[id] = 1
			case len(ins) == 0:
				il[id] = 0
			case t.Ops[op].Kind == topology.Correlated: // Eq. 2
				il[id] = 1 - prod
			case den == 0:
				il[id] = 1
			default: // Eq. 3
				il[id] = num / den
			}
		}
	}
	var lost, total float64
	for _, id := range t.SinkTasks() {
		lost, total = lost+t.OutRate(id)*il[id], total+t.OutRate(id)
	}
	return clamp01(1 - lost/total)
}

// refIC is the reference of Internal Completeness: plain rates
// propagated through the live tasks, the tuples processed relative to
// failure-free processing.
func refIC(t *topology.Topology, failed []bool) float64 {
	rate := make([]float64, t.NumTasks()) // effective output rate
	var processed, normal float64
	for _, op := range t.OpOrder() {
		for _, id := range t.TasksOf(op) {
			ins := t.InputsOf(id)
			if len(ins) == 0 { // a source processes what it emits
				normal += t.OutRate(id)
				if !failed[id] {
					rate[id] = t.OutRate(id)
					processed += rate[id]
				}
				continue
			}
			var received float64
			for _, in := range ins {
				normal += in.Rate()
				for _, sub := range in.Subs {
					received += sub.Rate * rate[sub.From] / t.OutRate(sub.From)
				}
			}
			if !failed[id] {
				processed += received
				rate[id] = received * t.Ops[op].Selectivity
			}
		}
	}
	return clamp01(processed / normal)
}

// refCorrPlan is the reference of the Corr hill climb over the inner
// planner's plan: every move is scored by a full CorrObjective
// evaluation of the moved plan, with the same enumeration order and
// tie-break as Corr.Plan.
func refCorrPlan(inner Planner, c *Context, budget int) (Plan, error) {
	cur, err := inner.Plan(c, budget)
	if err != nil {
		return Plan{}, err
	}
	if c.corr == nil {
		return cur, nil
	}
	n := c.Topo.NumTasks()
	if budget > n {
		budget = n
	}
	best := c.CorrObjective(cur)
	type move struct {
		add topology.TaskID
		del topology.TaskID // noTask for a pure add
	}
	const noTask = topology.TaskID(-1)
	for round := 0; round < corrRounds; round++ {
		var ins, outs []topology.TaskID
		for id := 0; id < n; id++ {
			if cur.Has(topology.TaskID(id)) {
				outs = append(outs, topology.TaskID(id))
			} else {
				ins = append(ins, topology.TaskID(id))
			}
		}
		var moves []move
		if cur.Size() < budget {
			for _, in := range ins {
				moves = append(moves, move{add: in, del: noTask})
			}
		}
		for _, out := range outs {
			for _, in := range ins {
				moves = append(moves, move{add: in, del: out})
			}
		}
		if len(moves) == 0 {
			break
		}
		vals := make([]float64, len(moves))
		for i, m := range moves {
			probe := cur.Clone()
			if m.del != noTask {
				probe.Remove(m.del)
			}
			probe.Add(m.add)
			vals[i] = c.CorrObjective(probe)
		}
		bestMove := -1
		for i, v := range vals {
			if v > best {
				best = v
				bestMove = i
			}
		}
		if bestMove < 0 {
			break
		}
		if moves[bestMove].del != noTask {
			cur.Remove(moves[bestMove].del)
		}
		cur.Add(moves[bestMove].add)
	}
	return cur, nil
}
