// Package workload provides the deterministic dataset generators of the
// evaluation (§VI-B of Su & Zhou, ICDE 2016).
//
// Q1's input in the paper is the WorldCup'98 website access log (73.3M
// records), which is not redistributable inside this repository; the
// AccessLogModel below generates a synthetic equivalent: access records
// with Zipfian object popularity, partitioned by server id, replayed at
// a configurable acceleration. Q2's input is synthetic in the paper as
// well: a user-location stream and a user-reported incident stream with
// users distributed over road segments by a Zipfian distribution
// (s=0.5); the TrafficModel reproduces that generator.
//
// All generators are deterministic functions of (seed, batch), which is
// what makes Storm-style source replay possible in the engine.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// zipfCDF precomputes a cumulative Zipf distribution over n items with
// parameter s.
type zipfCDF struct {
	cum []float64
}

func newZipfCDF(n int, s float64) zipfCDF {
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return zipfCDF{cum: cum}
}

// sample draws one index from the distribution.
func (z zipfCDF) sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// weight returns the probability mass of item i.
func (z zipfCDF) weight(i int) float64 {
	if i == 0 {
		return z.cum[0]
	}
	return z.cum[i] - z.cum[i-1]
}

// AccessLogModel generates the synthetic WorldCup-style access log.
type AccessLogModel struct {
	Seed        int64
	Servers     int     // number of servers (= source partitions)
	Objects     int     // number of distinct site objects
	Skew        float64 // Zipf parameter of object popularity
	RatePerTask int     // access records per batch per source task
	// TopSample bounds the number of distinct objects sampled per task
	// per batch (records are drawn in closed form from the Zipf weights;
	// the remainder volume is carried as unmaterialised counts).
	TopSample int

	zipf zipfCDF
}

// NewAccessLogModel builds the model with sane defaults. Fields may be
// adjusted before first use; the distribution is built lazily.
func NewAccessLogModel(seed int64) *AccessLogModel {
	return &AccessLogModel{
		Seed:        seed,
		Servers:     8,
		Objects:     5000,
		Skew:        0.8,
		RatePerTask: 2000,
		TopSample:   400,
	}
}

func (m *AccessLogModel) init() {
	if m.zipf.cum == nil {
		m.zipf = newZipfCDF(m.Objects, m.Skew)
	}
}

// ObjectName returns the canonical name of object i.
func ObjectName(i int) string { return fmt.Sprintf("obj-%05d", i) }

// objectAt maps popularity rank i on a given server task to a global
// object id. Each server has its own hot set (rank i on server t is
// object i*Servers+t), reflecting that different servers of the site
// host different content; losing a server's partition therefore removes
// its hot objects from the global top-k, which is what makes top-k
// accuracy track input completeness.
func (m *AccessLogModel) objectAt(task, rank int) int {
	return (rank*m.Servers + task) % m.Objects
}

// AccessCounts returns, for one source task and one batch, the number of
// access records per object, as a deterministic draw. The returned map
// holds materialised per-object counts for the TopSample most popular
// objects of the task's server; rest is the residual record volume of
// the unmaterialised tail.
func (m *AccessLogModel) AccessCounts(task, batch int) (counts map[int]int, rest int) {
	m.init()
	rng := rand.New(rand.NewSource(m.Seed ^ int64(task)*1_000_003 ^ int64(batch)*7_000_037))
	counts = make(map[int]int)
	// Expected counts for the head of the distribution, with
	// multiplicative noise; tail volume stays unmaterialised.
	materialised := 0
	for i := 0; i < m.TopSample && i < m.Objects; i++ {
		mean := float64(m.RatePerTask) * m.zipf.weight(i)
		n := int(mean + rng.NormFloat64()*math.Sqrt(mean) + 0.5)
		if n < 0 {
			n = 0
		}
		if n > 0 {
			counts[m.objectAt(task, i)] += n
			materialised += n
		}
	}
	rest = m.RatePerTask - materialised
	if rest < 0 {
		rest = 0
	}
	return counts, rest
}

// TrueTopK returns the objects with the highest total expected access
// counts — the ground truth ranking implied by the Zipf weights (rank r
// maps to the objects r*Servers..r*Servers+Servers-1, one per server).
// Only tests call it: this package's and internal/queries'
// TestQ1BaselineFindsTrueTopK.
func (m *AccessLogModel) TrueTopK(k int) []string {
	m.init()
	if k > m.Objects {
		k = m.Objects
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = ObjectName(i)
	}
	return out
}

// TrafficModel generates Q2's two input streams: user locations and
// user-reported incidents (§VI-B).
type TrafficModel struct {
	Seed     int64
	Users    int     // users distributed over the segments
	Segments int     // virtual road segments
	Skew     float64 // Zipf parameter of the user distribution (paper: 0.5)
	// LocRecordsPerBatch is the total user-location records per batch
	// across all segments (paper: 20000/s).
	LocRecordsPerBatch int
	// IncidentEveryBatches is the gap between consecutive incidents
	// (paper: one incident every 2 seconds).
	IncidentEveryBatches int
	// JamProbability is the chance an incident slows its segment down
	// (producing a detectable jam).
	JamProbability float64
	// JamDurationBatches is how long a jam depresses the segment speed.
	JamDurationBatches int
	// NormalSpeed and JamSpeed are the segment speeds (km/h).
	NormalSpeed, JamSpeed float64

	zipf      zipfCDF
	userShare []float64
}

// NewTrafficModel builds the model with the paper's §VI-B parameters:
// 100000 users over 1000 segments, Zipf s=0.5, 20000 location records
// per batch, one incident every 2 batches. Fields may be adjusted before
// first use; the distribution is built lazily.
func NewTrafficModel(seed int64) *TrafficModel {
	return &TrafficModel{
		Seed:                 seed,
		Users:                100000,
		Segments:             1000,
		Skew:                 0.5,
		LocRecordsPerBatch:   20000,
		IncidentEveryBatches: 2,
		JamProbability:       0.7,
		JamDurationBatches:   10,
		NormalSpeed:          60,
		JamSpeed:             10,
	}
}

func (m *TrafficModel) init() {
	if m.zipf.cum != nil {
		return
	}
	m.zipf = newZipfCDF(m.Segments, m.Skew)
	m.userShare = make([]float64, m.Segments)
	for i := range m.userShare {
		m.userShare[i] = m.zipf.weight(i)
	}
}

// SegmentName returns the canonical segment key.
func SegmentName(i int) string { return fmt.Sprintf("seg-%04d", i) }

// UsersOn returns the number of users located on segment i.
func (m *TrafficModel) UsersOn(i int) int {
	m.init()
	return int(float64(m.Users)*m.userShare[i] + 0.5)
}

// Incident describes one generated incident.
type Incident struct {
	ID      string
	Segment int
	Batch   int
	Jam     bool // whether it actually causes a traffic jam
}

// IncidentAt returns the incident generated at the given batch, if any.
// The incident probability of a segment is proportional to the number of
// users located on it (§VI-B).
func (m *TrafficModel) IncidentAt(batch int) (Incident, bool) {
	m.init()
	if m.IncidentEveryBatches <= 0 || batch%m.IncidentEveryBatches != 0 {
		return Incident{}, false
	}
	rng := rand.New(rand.NewSource(m.Seed ^ 0x1234567 ^ int64(batch)*2_000_003))
	seg := m.zipf.sample(rng)
	return Incident{
		ID:      fmt.Sprintf("inc-%d-seg%d", batch, seg),
		Segment: seg,
		Batch:   batch,
		Jam:     rng.Float64() < m.JamProbability,
	}, true
}

// SpeedOf returns the average speed observed on segment seg at the given
// batch, accounting for active jams.
func (m *TrafficModel) SpeedOf(seg, batch int) float64 {
	m.init()
	for b := batch; b >= 0 && b > batch-m.JamDurationBatches; b-- {
		inc, ok := m.IncidentAt(b)
		if ok && inc.Segment == seg && inc.Jam {
			return m.JamSpeed
		}
	}
	// small deterministic wobble
	rng := rand.New(rand.NewSource(m.Seed ^ int64(seg)*3_000_017 ^ int64(batch)*5_000_011))
	return m.NormalSpeed + rng.Float64()*10 - 5
}

// LocRecords returns, for a batch, the per-segment user-location record
// counts (proportional to the users on each segment).
func (m *TrafficModel) LocRecords(batch int) []int {
	m.init()
	out := make([]int, m.Segments)
	for i := range out {
		out[i] = int(float64(m.LocRecordsPerBatch)*m.userShare[i] + 0.5)
	}
	return out
}

// TrueJams returns the IDs of all jam-causing incidents in the batch
// range [from, to] — Q2's ground truth (the accurate incident set IA is
// the set of incidents that incur traffic jams). Only tests call it: this
// package's and internal/queries' TestQ2BaselineDetectsJams and
// TestQ2JoinInputLossKillsDetection.
func (m *TrafficModel) TrueJams(from, to int) []string {
	var out []string
	for b := from; b <= to; b++ {
		if inc, ok := m.IncidentAt(b); ok && inc.Jam {
			out = append(out, inc.ID)
		}
	}
	return out
}
