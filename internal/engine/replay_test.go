package engine

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// queueContent reads a replay queue back as a map from batch number to
// buffered batch.
func queueContent(q *replayQueue) map[int]Batch {
	m := make(map[int]Batch)
	for i, c := range q.items {
		if c.Count >= 0 {
			m[q.first+i] = c
		}
	}
	return m
}

// bufferedBatches returns the batches a runtime buffers for one
// downstream task.
func bufferedBatches(rt *taskRuntime, down topology.TaskID) map[int]Batch {
	s, ok := rt.slotOf(down)
	if !ok {
		return nil
	}
	return queueContent(&rt.outBuf[s])
}

// bufferedTuples returns the tuples a runtime buffers for all its
// downstream tasks.
func bufferedTuples(rt *taskRuntime) int {
	n := 0
	for s := range rt.outBuf {
		for _, c := range queueContent(&rt.outBuf[s]) {
			n += c.Count
		}
	}
	return n
}

// checkQueue compares a replay queue with its map reference: the same
// batches with the same content, held in ascending batch order, the same
// summed count, and no gap at either end.
func checkQueue(t *testing.T, step string, q *replayQueue, ref map[int]Batch) {
	t.Helper()
	var order, want []int
	for i, c := range q.items {
		if c.Count < 0 {
			continue
		}
		b := q.first + i
		order = append(order, b)
		r, ok := ref[b]
		if !ok {
			t.Fatalf("%s: queue holds batch %d, reference does not", step, b)
		}
		if r.Count != c.Count || len(r.Tuples) != len(c.Tuples) || len(r.Tuples) > 0 && &r.Tuples[0] != &c.Tuples[0] {
			t.Fatalf("%s: batch %d holds %+v, reference %+v", step, b, c, r)
		}
	}
	sum := 0
	for b, c := range ref {
		want = append(want, b)
		sum += c.Count
	}
	slices.Sort(want)
	if !slices.Equal(order, want) {
		t.Fatalf("%s: queue iterates batches %v, reference holds %v", step, order, want)
	}
	if got := q.count(); got != sum {
		t.Fatalf("%s: count %d, reference %d", step, got, sum)
	}
	if n := len(q.items); n > 0 && (q.items[0].Count < 0 || q.items[n-1].Count < 0) {
		t.Fatalf("%s: queue starts or ends with a gap: first %d, %d slots", step, q.first, n)
	}
}

// TestReplayQueueMatchesMap drives a replay queue and a map[int]Batch
// reference through random sequences of puts (overwrites, puts above
// the last batch with gaps, puts below the first), trims, copies and
// resets onto a copy, comparing them after every step.
func TestReplayQueueMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 300; seq++ {
		var q, saved replayQueue
		ref, savedRef := map[int]Batch{}, map[int]Batch{}
		for step := 0; step < 200; step++ {
			content := Batch{Count: rng.Intn(3) * (seq*1000 + step)}
			if rng.Intn(2) == 0 {
				content.Tuples = make([]Tuple, 1+rng.Intn(2))
				content.Count += len(content.Tuples)
			}
			var held []int
			for b := range ref {
				held = append(held, b)
			}
			slices.Sort(held)
			lo, hi := 0, -1
			if len(held) > 0 {
				lo, hi = held[0], held[len(held)-1]
			}
			var op string
			switch k := rng.Intn(10); {
			case k < 2 && len(held) > 0:
				op = "overwrite"
				b := held[rng.Intn(len(held))]
				q.put(b, content)
				ref[b] = content
			case k < 5:
				op = "put above"
				b := hi + 1 + rng.Intn(4)
				q.put(b, content)
				ref[b] = content
			case k < 7 && lo > 0:
				op = "put below"
				b := max(lo-1-rng.Intn(4), 0)
				q.put(b, content)
				ref[b] = content
			case k < 8:
				op = "trim"
				upTo := lo - 2 + rng.Intn(max(hi-lo+5, 1))
				q.trim(upTo)
				for b := range ref {
					if b <= upTo {
						delete(ref, b)
					}
				}
			case k < 9:
				op = "copy"
				saved.copyFrom(&q)
				savedRef = maps.Clone(ref)
			default:
				op = "reset"
				if rng.Intn(4) == 0 {
					q.copyFrom(&replayQueue{})
					ref = map[int]Batch{}
				} else {
					q.copyFrom(&saved)
					ref = maps.Clone(savedRef)
				}
			}
			name := fmt.Sprintf("sequence %d step %d (%s)", seq, step, op)
			checkQueue(t, name, &q, ref)
			checkQueue(t, name+", saved copy", &saved, savedRef)
		}
	}
}

// TestRewindBelowTrimmedBuffer rewinds live checkpointed ancestors of a
// source-replay task on the 5-task chain. Their output buffers were
// trimmed by downstream checkpoints, so the rewind re-emits batches
// below the trimmed front (the sources' buffers grow from 4,000 to
// 33,000 tuples in the first case). The fingerprints — sink volume,
// progress, buffered tuples per task, CPU and recovery stats — were
// computed with a map per downstream task as the buffer, so they pin
// the queues to the same content, replay order and event stream.
func TestRewindBelowTrimmedBuffer(t *testing.T) {
	at := []sim.Time{33, 36, 40, 50, 70}
	cases := []struct {
		failed topology.TaskID
		want   []string
	}{
		{4, []string{
			"sink=15000 progress=[32 32 31 31 29] buffered=[4000 1000 16000 16000 0] cpu=[0 0.1936096 0 0.22001119999999996 4.0639999999999965 0.448104 4.0639999999999965 0.5193168 3.809999999999997 0] recovery=[4/source-replay/30.5/0/0/false]",
			"sink=15000 progress=[35 35 2 2 2] buffered=[33000 33000 17500 17500 0] cpu=[0 0.22641119999999998 0 0.22001119999999996 4.444999999999996 0.5545232 4.444999999999996 0.5193168 0 0] recovery=[4/source-replay/30.5/35/0/false]",
			"sink=15500 progress=[39 39 32 32 30] buffered=[12000 27000 17500 17500 0] cpu=[0 0.3584128 0 0.34561279999999994 8.254999999999992 0.6625424 8.254999999999992 0.627336 3.5559999999999974 0] recovery=[4/source-replay/30.5/35/39.764019200000064/true]",
			"sink=24500 progress=[49 49 48 48 48] buffered=[1000 3000 24500 24500 0] cpu=[0 0.45921599999999996 0 0.48801599999999995 10.287000000000003 0.9153807999999999 10.287000000000003 0.8737744 5.841999999999993 0] recovery=[4/source-replay/30.5/35/39.764019200000064/true]",
			"sink=34500 progress=[69 69 68 68 68] buffered=[1000 3000 34500 34500 0] cpu=[0 0.5904223999999999 0 0.6192224 12.827000000000016 1.5170575999999998 12.827000000000016 1.4626511999999998 8.381999999999993 0] recovery=[4/source-replay/30.5/35/39.764019200000064/true]",
		}},
		{2, []string{
			"sink=15000 progress=[32 32 29 31 29] buffered=[33000 1000 2500 1000 0] cpu=[0 0.4176096 0 0.22001119999999996 3.809999999999997 0 4.0639999999999965 0.3513168 3.809999999999997 0.31611039999999996] recovery=[2/source-replay/30.5/0/0/false]",
			"sink=16250 progress=[35 35 2 34 34] buffered=[36000 4000 0 0 0] cpu=[0 0.5432112 0 0.22001119999999996 0 0 4.444999999999996 0.3513168 4.132499999999996 0.36012959999999994] recovery=[2/source-replay/30.5/35/0/false]",
			"sink=18000 progress=[39 39 33 38 38] buffered=[40000 3000 15500 2000 0] cpu=[0 0.6848128 0 0.25281279999999995 3.9369999999999967 0 4.952999999999995 0.406536 4.583999999999994 0.36012959999999994] recovery=[2/source-replay/30.5/35/39.47900000000006/true]",
			"sink=24500 progress=[49 49 48 48 48] buffered=[50000 3000 2000 2000 0] cpu=[0 1.016016 0 0.3184159999999999 5.841999999999993 0 6.222999999999993 0.5185744 6.240999999999991 0.443368] recovery=[2/source-replay/30.5/35/39.47900000000006/true]",
			"sink=34500 progress=[69 69 68 68 68] buffered=[70000 3000 2000 2000 0] cpu=[0 1.8704224000000003 0 0.44962239999999987 8.381999999999993 0 8.762999999999995 0.7394512000000001 8.780999999999992 0.6514448] recovery=[2/source-replay/30.5/35/39.47900000000006/true]",
		}},
	}
	for _, c := range cases {
		strategies := allStrategies(5, StrategyCheckpoint)
		strategies[c.failed] = StrategySourceReplay
		e := newChainEngine(t, Config{CheckpointInterval: 5, TentativeOutputs: true}, strategies)
		e.ScheduleTaskFailures([]topology.TaskID{c.failed}, 30.5)
		for i, until := range at {
			e.Run(until)
			if got := rewindFingerprint(e); got != c.want[i] {
				t.Errorf("task %d failed, at %v:\n got %s\nwant %s", c.failed, until, got, c.want[i])
			}
		}
	}
}

func rewindFingerprint(e *Engine) string {
	var progress, buffered []int
	for id, rt := range e.tasks {
		progress = append(progress, e.TaskProgress(topology.TaskID(id)))
		buffered = append(buffered, bufferedTuples(rt))
	}
	var cpu []float64
	for _, c := range e.CPUStats() {
		cpu = append(cpu, float64(c.ProcCPU), float64(c.CkptCPU))
	}
	var rec []string
	for _, r := range e.RecoveryStats() {
		rec = append(rec, fmt.Sprintf("%d/%v/%v/%v/%v/%v", r.Task, r.Strategy,
			float64(r.FailedAt), float64(r.DetectedAt), float64(r.RecoveredAt), r.Recovered))
	}
	return fmt.Sprintf("sink=%d progress=%v buffered=%v cpu=%v recovery=%v",
		e.SinkTupleCount(), progress, buffered, cpu, rec)
}
