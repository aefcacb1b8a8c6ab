package sketch

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
)

// Weighted is a deterministic, mergeable streaming quantile summary
// over weighted samples — the aggregation unit of importance-sampled
// campaigns, where each scenario carries a likelihood-ratio weight and
// quantiles must be answered against the reweighted (target)
// distribution. Like Sketch it is a pure function of its Add/Merge
// sequence: compaction draws its coins from a splitmix64 counter
// seeded at construction, Merge folds the other summary's counter into
// the receiver's, and serialisation is bit-exact — so shard states
// merge into the same bytes on every process, whatever worker produced
// them.
//
// Compaction model. The summary buffers up to 4k weighted items; when
// full it sorts by value and collapses adjacent pairs, keeping one of
// the two values per pair — chosen by a deterministic coin biased by
// the pair's weights (the heavier item survives proportionally more
// often) — at the pair's combined weight. Total weight is preserved
// exactly at every step, and each collapse displaces at most one
// pair's weight of cumulative mass, so quantile answers degrade
// gracefully (property-tested against an exact weighted reference).
// Streams of at most 4k items are summarised exactly. Count, SumW,
// SumWX (hence Mean), Min and Max are always exact.
type Weighted struct {
	k    int
	seed uint64
	coin uint64

	items []weightedItem

	count      uint64
	sumW       float64
	sumWX      float64
	sumW2      float64
	min, max   float64
	compactAt  int
	compactLen int
}

type weightedItem struct {
	v, w float64
}

// NewSeededWeighted returns an empty weighted summary with an explicit
// compaction-coin seed. Summaries that are merged together should
// share a seed.
func NewSeededWeighted(k int, seed uint64) *Weighted {
	if k <= 0 {
		k = DefaultK
	}
	if k < 8 {
		k = 8
	}
	return &Weighted{k: k, seed: seed, compactAt: 4 * k, compactLen: 2 * k}
}

// K returns the accuracy parameter.
func (s *Weighted) K() int { return s.k }

// Count returns the number of Add calls (exact, merge-safe).
func (s *Weighted) Count() uint64 { return s.count }

// SumW returns the exact total weight added.
func (s *Weighted) SumW() float64 { return s.sumW }

// SumW2 returns the exact sum of squared weights — the denominator of
// the classic effective-sample-size estimate (SumW²/SumW2).
func (s *Weighted) SumW2() float64 { return s.sumW2 }

// Mean returns the weighted mean SumWX/SumW (0 when empty).
func (s *Weighted) Mean() float64 {
	if s.sumW == 0 {
		return 0
	}
	return s.sumWX / s.sumW
}

// Min returns the exact minimum value (0 when empty).
func (s *Weighted) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum value (0 when empty).
func (s *Weighted) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Add feeds one sample with weight w. Non-positive weights carry no
// probability mass and are ignored.
func (s *Weighted) Add(x, w float64) {
	if w <= 0 {
		return
	}
	if s.count == 0 || x < s.min {
		s.min = x
	}
	if s.count == 0 || x > s.max {
		s.max = x
	}
	s.count++
	s.sumW += w
	s.sumWX += x * w
	s.sumW2 += w * w
	s.items = append(s.items, weightedItem{x, w})
	if len(s.items) >= s.compactAt {
		s.compact()
	}
}

// Merge folds o into s; o is left untouched. Merging is deterministic
// for a fixed merge order (the campaign merges shards in shard order).
// The receiver's accuracy parameter is tightened to the smaller of the
// two.
func (s *Weighted) Merge(o *Weighted) {
	if o == nil || o.count == 0 {
		return
	}
	if o.k < s.k {
		s.k = o.k
		s.compactAt = o.compactAt
		s.compactLen = o.compactLen
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if s.count == 0 || o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sumW += o.sumW
	s.sumWX += o.sumWX
	s.sumW2 += o.sumW2
	s.coin += o.coin
	s.items = append(s.items, o.items...)
	for len(s.items) >= s.compactAt {
		s.compact()
	}
}

// Quantile returns a stored value approximating the weighted
// nearest-rank quantile q in [0, 1]: the smallest stored value whose
// cumulative weight reaches q*SumW. q <= 0 yields the exact minimum,
// q >= 1 the exact maximum; an empty summary yields 0.
func (s *Weighted) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	sorted := append([]weightedItem(nil), s.items...)
	sortItems(sorted)
	target := q * s.sumW
	var cum float64
	for _, it := range sorted {
		cum += it.w
		if cum >= target {
			return it.v
		}
	}
	return s.max
}

// String describes the summary state (for debugging and tests).
func (s *Weighted) String() string {
	return fmt.Sprintf("weighted{k=%d n=%d stored=%d sumw=%g}", s.k, s.count, len(s.items), s.sumW)
}

// compact sorts the buffer by value and collapses adjacent pairs: each
// pair keeps one of its two values — a deterministic weighted coin
// picks the left value with probability w1/(w1+w2) — at the combined
// weight, halving the buffer while preserving total weight exactly. An
// odd trailing item survives unchanged. Repeated until the buffer is
// at most compactLen items.
func (s *Weighted) compact() {
	for len(s.items) > s.compactLen {
		sortItems(s.items)
		out := s.items[:0]
		i := 0
		for ; i+1 < len(s.items); i += 2 {
			a, b := s.items[i], s.items[i+1]
			v := a.v
			if s.flipW(a.w, b.w) == 1 {
				v = b.v
			}
			out = append(out, weightedItem{v, a.w + b.w})
		}
		if i < len(s.items) {
			out = append(out, s.items[i])
		}
		s.items = out
	}
}

// flipW draws one deterministic weighted coin: 0 (pick left) with
// probability wl/(wl+wr).
func (s *Weighted) flipW(wl, wr float64) int {
	s.coin++
	u := float64(mix64(s.seed+s.coin*0x9e3779b97f4a7c15)>>11) / (1 << 53)
	if u*(wl+wr) < wl {
		return 0
	}
	return 1
}

// sortItems orders by value, then weight — a total order on the fields
// the compactor reads, so equal items are interchangeable and the
// compaction result depends only on the item multiset and coin state.
func sortItems(items []weightedItem) {
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v < items[j].v
		}
		return items[i].w < items[j].w
	})
}

// Binary serialisation, mirroring the Sketch format: bit-exact state
// capture with a trailing CRC-32C.
//
// Format (version 1, little-endian):
//
//	magic "ppaw" | version byte | uint32 k | uint64 seed | uint64 coin
//	| uint64 count | float64 sumW | float64 sumWX | float64 sumW2
//	| float64 min | float64 max | uint32 nItems
//	| nItems × (float64 v | float64 w) | uint32 CRC-32C
const (
	weightedMagic     = "ppaw"
	weightedVersion   = 1
	weightedHeaderLen = len(weightedMagic) + 1 + 4 + 8*2 + 8*6 + 4
)

// MarshalBinary encodes the summary state deterministically: two
// summaries with identical state produce identical bytes.
func (s *Weighted) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, weightedHeaderLen+16*len(s.items)+4)
	buf = append(buf, weightedMagic...)
	buf = append(buf, weightedVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.k))
	buf = binary.LittleEndian.AppendUint64(buf, s.seed)
	buf = binary.LittleEndian.AppendUint64(buf, s.coin)
	buf = binary.LittleEndian.AppendUint64(buf, s.count)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.sumW))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.sumWX))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.sumW2))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.min))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.max))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.items)))
	for _, it := range s.items {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.v))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(it.w))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
	return buf, nil
}

// UnmarshalBinary replaces the receiver's state with the encoded one.
// It rejects truncated input, wrong magic, unknown versions, checksum
// mismatches and trailing garbage; on error the receiver is left
// unchanged.
func (s *Weighted) UnmarshalBinary(data []byte) error {
	if len(data) < weightedHeaderLen+4 {
		return fmt.Errorf("sketch: weighted encoding truncated: %d bytes", len(data))
	}
	if string(data[:len(weightedMagic)]) != weightedMagic {
		return fmt.Errorf("sketch: bad weighted magic %q", data[:len(weightedMagic)])
	}
	if v := data[len(weightedMagic)]; v != weightedVersion {
		return fmt.Errorf("sketch: unsupported weighted encoding version %d (have %d)", v, weightedVersion)
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != crc {
		return fmt.Errorf("sketch: weighted checksum mismatch: %08x != %08x (corrupt encoding)", got, crc)
	}
	r := body[len(weightedMagic)+1:]
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(r); r = r[4:]; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(r); r = r[8:]; return v }
	k := int(u32())
	if k < 8 {
		return fmt.Errorf("sketch: invalid weighted accuracy parameter %d in encoding", k)
	}
	seed, coin, count := u64(), u64(), u64()
	sumW := math.Float64frombits(u64())
	sumWX := math.Float64frombits(u64())
	sumW2 := math.Float64frombits(u64())
	mn := math.Float64frombits(u64())
	mx := math.Float64frombits(u64())
	n := int(u32())
	// Every item costs 16 bytes; a count beyond len(r)/16 cannot be
	// satisfied, so reject it before allocating.
	if n > len(r)/16 {
		return fmt.Errorf("sketch: implausible weighted item count %d for %d remaining bytes", n, len(r))
	}
	items := make([]weightedItem, n)
	for i := range items {
		items[i] = weightedItem{math.Float64frombits(u64()), math.Float64frombits(u64())}
	}
	if len(r) != 0 {
		return fmt.Errorf("sketch: %d trailing bytes after weighted encoding", len(r))
	}
	s.k, s.seed, s.coin = k, seed, coin
	s.count, s.sumW, s.sumWX, s.sumW2 = count, sumW, sumWX, sumW2
	s.min, s.max, s.items = mn, mx, items
	s.compactAt, s.compactLen = 4*k, 2*k
	return nil
}
