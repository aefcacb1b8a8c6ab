package campaign

import (
	"testing"
)

// goldenCampaign builds the fixed campaign the determinism test hashes:
// the medium preset topology under the greedy plan with tentative
// outputs on, swept with domain and cascade bursts.
func goldenCampaign(t *testing.T) (*Env, []Scenario) {
	t.Helper()
	topo, err := PresetTopology(TopoMedium, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnv(EnvSpec{Topo: topo, Planner: "greedy", Tentative: true})
	if err != nil {
		t.Fatal(err)
	}
	sample, err := env.Cluster()
	if err != nil {
		t.Fatal(err)
	}
	var scs []Scenario
	for _, m := range []Model{WholeDomain, Cascade} {
		s, err := Generate(sample, GenSpec{
			Seed:        7,
			Scenarios:   6,
			Model:       m,
			Correlation: DefaultCorrelation,
		})
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, s...)
	}
	return env, scs
}

// goldenWant is the report digest of the pre-refactor engine (computed
// on main before the allocation-free kernel/dense-state/Reset rework)
// for the goldenCampaign configuration. Any engine change that alters a
// single reported bit for fixed seeds changes this hash.
const goldenWant = "037ed8e09f269984edd39fbe4213b524b9747a358f3b54ae99dfd464c8f7c381"

// goldenSummaryWant pins the sketch-path summary for the golden
// campaign at 4 reduction shards: the sharded sketch reduction must
// stay bit-identical across worker counts, and across refactors of the
// sketch itself. (Recomputed when shard
// ownership moved from i mod Shards to contiguous blocks — the mapping
// that makes distributed ranges merge bit-identically; the
// per-scenario goldenWant was unaffected.)
const goldenSummaryWant = "ae131174de61b8ac4d6b547a4eabbf6bb0e39480867db3e1948bdb264748c5a6"

// TestGoldenReportHash pins campaign determinism end to end: the
// per-scenario results must be bit-identical to the pre-refactor
// engine's — which built a fresh environment per scenario, so the
// per-worker engine Reset is checked against fresh setups too — and
// the sketch-path summary bit-identical sequentially and on the full
// pool, for a fixed shard count.
func TestGoldenReportHash(t *testing.T) {
	env, scs := goldenCampaign(t)
	cases := []struct {
		name    string
		workers int
	}{
		{"workers=1/reset", 1},
		{"workers=max/reset", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rep, err := Run(Config{
				Setup:       env.Setup,
				Scenarios:   scs,
				Horizon:     90,
				Workers:     c.workers,
				Shards:      4,
				KeepResults: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := ReportDigest(rep); got != goldenWant {
				t.Fatalf("golden hash = %s, want %s", got, goldenWant)
			}
			if got := SummaryDigest(rep.Summary); got != goldenSummaryWant {
				t.Fatalf("summary hash = %s, want %s", got, goldenSummaryWant)
			}
		})
	}
}
