package engine

import (
	"maps"
	"math"
	"slices"
)

// replayState is what a task keeps to replay its output (§II-B): a
// taskState holds it, and a checkpoint stores it with the operator
// state, so a restored task keeps accepting the late corrections of
// batches it closed tentative before the snapshot.
type replayState struct {
	// outBuf buffers emitted batches per recipient slot for replay;
	// trimmed when the downstream checkpoints.
	outBuf []replayQueue
	// tentOut marks the batches the task closed (and emitted)
	// tentative. Amendments are only accepted for batches in tentOut,
	// and replayed buffered output re-delivers the taint.
	tentOut map[int]bool
	// missIn records, per closed batch and upstream, a
	// master-fabricated punctuation whose real data never arrived: the
	// input is owed. Open-batch miss flags live in the window; they are
	// spilled here when a batch closes tentative, surviving the close so
	// that the recovered upstream's late real data can be matched and
	// reprocessed as an amendment. It lists closed batches only, all
	// below nextBatch.
	missIn owedSet
}

// copyFrom overwrites the state with a copy of src, reusing its queues,
// map and owed-input lists.
func (s *replayState) copyFrom(src *replayState) {
	s.outBuf = copyQueues(s.outBuf, src.outBuf)
	s.tentOut = copyMarks(s.tentOut, src.tentOut)
	s.missIn.copyFrom(&src.missIn)
}

// replayQueue is the output buffer a task keeps for one downstream
// recipient (§II-B): the batches emitted to it, kept for replay until
// the recipient checkpoints past them. It holds them densely by batch
// number — items[i] is batch first+i — because a buffer is a short run
// of consecutive batches trimmed from the front. A Storm-style rewind
// (taskRuntime.resetTo) re-emits batches below a trimmed front, so a put
// may extend the queue at either end; the batch numbers in between that
// hold no output keep a gap slot. The queue is empty or starts and ends
// with a held batch.
type replayQueue struct {
	first int
	items []Batch
}

// gap fills the slot of a batch the queue does not hold; a held batch
// always has Count >= 0.
var gap = Batch{Count: -1}

// noCheckpoint is the checkpoint bound of a recipient that has not
// checkpointed yet. It sorts below every real bound, including the -1 a
// checkpoint taken before the first batch closes records.
const noCheckpoint = math.MinInt

// put buffers content as batch b, replacing whatever b held.
func (q *replayQueue) put(b int, content Batch) {
	switch {
	case len(q.items) == 0:
		q.first = b
		q.items = append(q.items, content)
	case b < q.first:
		n, old := q.first-b, len(q.items)
		q.items = slices.Grow(q.items, n)[:old+n]
		copy(q.items[n:], q.items[:old])
		q.items[0] = content
		for i := 1; i < n; i++ {
			q.items[i] = gap
		}
		q.first = b
	default:
		i := b - q.first
		for len(q.items) < i {
			q.items = append(q.items, gap)
		}
		if i == len(q.items) {
			q.items = append(q.items, content)
		} else {
			q.items[i] = content
		}
	}
}

// trim drops every batch up to and including upTo, and the gaps that
// would then lead the queue. Dropped slots are cleared so the queue
// keeps no tuples alive.
func (q *replayQueue) trim(upTo int) {
	k := min(upTo-q.first+1, len(q.items))
	if k <= 0 {
		return
	}
	for k < len(q.items) && q.items[k].Count < 0 {
		k++
	}
	n := copy(q.items, q.items[k:])
	clear(q.items[n:])
	q.items = q.items[:n]
	q.first += k
}

// reset empties the queue, keeping its backing array.
func (q *replayQueue) reset() {
	clear(q.items)
	q.first, q.items = 0, q.items[:0]
}

// count returns the summed tuple count of the held batches: the volume
// a checkpoint of the buffer is charged for.
func (q *replayQueue) count() int {
	total := 0
	for _, c := range q.items {
		if c.Count > 0 {
			total += c.Count
		}
	}
	return total
}

// copyFrom overwrites the queue with the content of src, reusing its
// backing array. The batches are shared, not deep-copied: an emitted
// batch's tuples are never written again.
func (q *replayQueue) copyFrom(src *replayQueue) {
	old := len(q.items)
	q.first = src.first
	q.items = append(q.items[:0], src.items...)
	if old > len(q.items) {
		clear(q.items[len(q.items):old])
	}
}

// copyQueues overwrites dst with the content of src, one queue per
// recipient slot, and returns it; dst's backing arrays are reused when
// it already has a queue per slot.
func copyQueues(dst, src []replayQueue) []replayQueue {
	if len(dst) != len(src) {
		dst = make([]replayQueue, len(src))
	}
	for i := range src {
		dst[i].copyFrom(&src[i])
	}
	return dst
}

// copyMarks overwrites dst with the tentative marks of src and returns
// it. A nil dst gets a map only when src holds a mark.
func copyMarks(dst, src map[int]bool) map[int]bool {
	clear(dst)
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[int]bool, len(src))
	}
	maps.Copy(dst, src)
	return dst
}
