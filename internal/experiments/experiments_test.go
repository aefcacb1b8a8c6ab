package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

func point(t *testing.T, r Result, series, x string) float64 {
	t.Helper()
	s, ok := seriesByName(r.Series)[series]
	if !ok {
		t.Fatalf("series %q missing in %s (have %v)", series, r.Figure, names(r))
	}
	v, ok := lookup(s, x)
	if !ok {
		t.Fatalf("point %q missing in series %q of %s", x, series, r.Figure)
	}
	return v
}

// assertPinned checks every point of a figure against pinned values,
// exactly: the series in order, each with its points' y values in x
// order. The pins are the values the planners and the §III evaluator
// produce today; a change to either that moves any figure point fails
// here.
func assertPinned(t *testing.T, r Result, want []pinnedSeries) {
	t.Helper()
	if len(r.Series) != len(want) {
		t.Fatalf("%s: %d series, want %d (%v)", r.Figure, len(r.Series), len(want), names(r))
	}
	for i, w := range want {
		s := r.Series[i]
		if s.Name != w.name || len(s.Points) != len(w.ys) {
			t.Fatalf("%s: series %d is %q with %d points, want %q with %d", r.Figure, i, s.Name, len(s.Points), w.name, len(w.ys))
		}
		for j, p := range s.Points {
			if p.Y != w.ys[j] {
				t.Errorf("%s: %s at %s = %v, pinned %v", r.Figure, s.Name, p.X, p.Y, w.ys[j])
			}
		}
	}
}

type pinnedSeries struct {
	name string
	ys   []float64
}

func names(r Result) []string {
	var out []string
	for _, s := range r.Series {
		out = append(out, s.Name)
	}
	return out
}

// TestRunRecoveryCell exercises one cell of Fig. 7 per technique and
// checks the paper's qualitative ordering: active < checkpoint, and
// checkpoint latency grows with the interval.
func TestRunRecoveryCell(t *testing.T) {
	cfg := recoveryConfig{windowBatches: 10, rate: 1000}
	lat := func(tech technique) float64 {
		stats, err := runRecovery(tech, cfg, singleNode, 8) // an O2 node
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != 1 {
			t.Fatalf("%s: %d stats", tech.name, len(stats))
		}
		return stats[0]
	}
	active := lat(figTechniques[0]) // Active-5s
	ckpt5 := lat(figTechniques[2])  // Checkpoint-5s
	ckpt30 := lat(figTechniques[4]) // Checkpoint-30s
	storm := lat(figTechniques[5])  // Storm
	if !(active < ckpt5 && ckpt5 < ckpt30) {
		t.Errorf("ordering violated: active=%v ckpt5=%v ckpt30=%v", active, ckpt5, ckpt30)
	}
	if storm <= active {
		t.Errorf("storm=%v should exceed active=%v", storm, active)
	}
}

// TestRunRecoveryCorrelated checks that a full correlated failure
// recovers under both active and checkpoint techniques and that active
// stays far ahead.
func TestRunRecoveryCorrelated(t *testing.T) {
	cfg := recoveryConfig{windowBatches: 10, rate: 1000}
	statsA, err := runRecovery(figTechniques[0], cfg, correlated, 0)
	if err != nil {
		t.Fatal(err)
	}
	statsC, err := runRecovery(figTechniques[3], cfg, correlated, 0) // Checkpoint-15s
	if err != nil {
		t.Fatal(err)
	}
	if len(statsA) != 15 || len(statsC) != 15 {
		t.Fatalf("stats = %d / %d, want 15 tasks each", len(statsA), len(statsC))
	}
	if worstA, worstC := slices.Max(statsA), slices.Max(statsC); worstA >= worstC {
		t.Errorf("correlated: active %v should beat checkpoint %v", worstA, worstC)
	}
}

// TestFig9Shape pins Fig. 9, the checkpointing CPU per unit of
// processing CPU, and checks that it falls with the checkpoint
// interval.
func TestFig9Shape(t *testing.T) {
	r, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"1000_tuples/s", []float64{0.7573979150531057, 0.15601337143569363, 0.055724104918499634, 0.03049924905687243}},
		{"2000_tuples/s", []float64{0.7231130464059242, 0.14930914719500346, 0.053477203846403816, 0.029378800834926975}},
	})
	for _, rate := range []string{"1000_tuples/s", "2000_tuples/s"} {
		r1 := point(t, r, rate, "1s")
		r30 := point(t, r, rate, "30s")
		if r1 <= r30 {
			t.Errorf("%s: ratio at 1s (%v) should exceed 30s (%v)", rate, r1, r30)
		}
		if r1 <= 0 {
			t.Errorf("%s: zero checkpoint cost", rate)
		}
	}
	// higher rate -> more state -> higher ratio at the same interval
	if point(t, r, "2000_tuples/s", "1s") <= point(t, r, "1000_tuples/s", "1s")/2 {
		t.Error("rate dependence of checkpoint cost looks wrong")
	}
}

// TestFig10Shape pins Fig. 10 at both source rates and checks the
// paper's ordering at rate 1000.
func TestFig10Shape(t *testing.T) {
	r2000, err := Fig10(2000)
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r2000, []pinnedSeries{
		{"PPA-1.0", []float64{0.7520000000000024, 0.7520000000000024, 0.7520000000000024}},
		{"PPA-0.5-active", []float64{0.7520000000000024, 0.7520000000000024, 0.7520000000000024}},
		{"PPA-0.5", []float64{5.784425600000006, 13.981676000000036, 31.768463999999867}},
		{"PPA-0", []float64{9.500025600000008, 23.766025599999935, 48.66607679999994}},
	})
	r, err := Fig10(1000)
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"PPA-1.0", []float64{0.402000000000001, 0.402000000000001, 0.402000000000001}},
		{"PPA-0.5-active", []float64{0.402000000000001, 0.402000000000001, 0.402000000000001}},
		{"PPA-0.5", []float64{3.6236767999999984, 6.688825600000037, 16.11521360000002}},
		{"PPA-0", []float64{5.404025600000004, 12.632076800000021, 24.41602559999994}},
	})
	for _, x := range []string{"5s", "15s", "30s"} {
		full := point(t, r, "PPA-1.0", x)
		halfActive := point(t, r, "PPA-0.5-active", x)
		half := point(t, r, "PPA-0.5", x)
		none := point(t, r, "PPA-0", x)
		// Paper: PPA-0.5-active <= PPA-1.0 << PPA-0.5 <= PPA-0.
		if halfActive > full+0.5 {
			t.Errorf("%s: PPA-0.5-active %v should be <= PPA-1.0 %v", x, halfActive, full)
		}
		if full >= half {
			t.Errorf("%s: PPA-1.0 %v should beat PPA-0.5 %v", x, full, half)
		}
		if half > none+0.5 {
			t.Errorf("%s: PPA-0.5 %v should be <= PPA-0 %v", x, half, none)
		}
	}
}

// TestFig12Q1Pinned pins Fig. 12 for the top-k query Q1, which has no
// join: OF and IC pick the same plans and track the same accuracy.
func TestFig12Q1Pinned(t *testing.T) {
	t.Parallel()
	r, err := Fig12Q1()
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"OF", []float64{0.125, 0.25, 0.5, 0.75}},
		{"OF-SA-Accuracy", []float64{0.13, 0.26, 0.51, 0.75}},
		{"IC", []float64{0.125, 0.25, 0.5, 0.75}},
		{"IC-SA-Accuracy", []float64{0.13, 0.26, 0.51, 0.75}},
	})
}

func TestFig12Q2Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig12Q2()
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"OF", []float64{0.02083333333333326, 0.16666666666666652, 0.4166666666666665, 0.6666666666666665}},
		{"OF-SA-Accuracy", []float64{0, 0.15789473684210525, 0.47368421052631576, 0.5263157894736842}},
		{"IC", []float64{0.09230018914074649, 0.3330832912470417, 0.6498903280750228, 0.8891137617222702}},
		{"IC-SA-Accuracy", []float64{0, 0.05263157894736842, 0.05263157894736842, 0.15789473684210525}},
	})
	// The defining result: for the join query the IC metric overestimates
	// quality — IC value far above the actual accuracy of the IC plan —
	// while OF tracks its plan's accuracy.
	icGap, ofGap := 0.0, 0.0
	for _, x := range []string{"0.4", "0.6"} {
		icGap += point(t, r, "IC", x) - point(t, r, "IC-SA-Accuracy", x)
		ofGap += abs(point(t, r, "OF", x) - point(t, r, "OF-SA-Accuracy", x))
	}
	if icGap <= ofGap {
		t.Errorf("IC gap (%v) should exceed OF gap (%v) for the join query", icGap, ofGap)
	}
}

func TestFig13Q1Shape(t *testing.T) {
	t.Parallel()
	r, err := Fig13Q1()
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"DP-OF", []float64{0.125, 0.25, 0.5, 0.75}},
		{"SA-OF", []float64{0.125, 0.25, 0.5, 0.75}},
		{"Greedy-OF", []float64{0, 0, 0, 0.5}},
		{"DP-Accuracy", []float64{0.14, 0.26, 0.51, 0.76}},
		{"SA-Accuracy", []float64{0.14, 0.26, 0.51, 0.76}},
		{"Greedy-Accuracy", []float64{0, 0, 0, 0.51}},
	})
	// DP is optimal; SA close; Greedy worst at low fractions.
	for _, x := range []string{"0.2", "0.4"} {
		dp := point(t, r, "DP-OF", x)
		sa := point(t, r, "SA-OF", x)
		g := point(t, r, "Greedy-OF", x)
		if sa > dp+1e-9 || g > dp+1e-9 {
			t.Errorf("%s: DP %v beaten by SA %v or Greedy %v", x, dp, sa, g)
		}
		if g > sa+1e-9 {
			t.Errorf("%s: Greedy %v should not beat SA %v", x, g, sa)
		}
	}
	if dp := point(t, r, "DP-OF", "0.2"); dp <= 0 {
		t.Errorf("DP OF at 0.2 = %v, want > 0", dp)
	}
}

// TestFig13Q2Pinned pins Fig. 13 for the join query Q2: DP and SA
// agree, greedy's tree-blind plans trail at every budget.
func TestFig13Q2Pinned(t *testing.T) {
	t.Parallel()
	r, err := Fig13Q2()
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"DP-OF", []float64{0, 0.0625, 0.25, 0.5}},
		{"SA-OF", []float64{0, 0.0625, 0.25, 0.5}},
		{"Greedy-OF", []float64{0, 0, 0, 0.25}},
		{"DP-Accuracy", []float64{0, 0.05, 0.35, 0.7}},
		{"SA-Accuracy", []float64{0, 0.05, 0.35, 0.7}},
		{"Greedy-Accuracy", []float64{0, 0, 0, 0.35}},
	})
}

func TestFig14aShape(t *testing.T) {
	t.Parallel()
	r, err := Fig14a(6)
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"SA-zipf", []float64{0.014612360214588041, 0.08526443636268133, 0.3134492638464157, 0.5281711688445189, 0.7475747597056758}},
		{"SA-uniform", []float64{0.012747954446138984, 0.07975750286873164, 0.3073266835298339, 0.5050136166277414, 0.7061615327751681}},
		{"Greedy-zipf", []float64{0.006988214509879613, 0.08090785990574591, 0.38717272504362477, 0.5977903195315845, 0.8131298356662345}},
		{"Greedy-uniform", []float64{0.006075868903260173, 0.02993302082521006, 0.3824075876359085, 0.5593987537854441, 0.818420644236891}},
	})
	// SA must dominate greedy, most visibly at small ratios.
	saZ := point(t, r, "SA-zipf", "0.2")
	gZ := point(t, r, "Greedy-zipf", "0.2")
	if saZ < gZ {
		t.Errorf("SA-zipf %v below Greedy-zipf %v at 0.2", saZ, gZ)
	}
	saBig := point(t, r, "SA-zipf", "0.8")
	if saBig <= saZ {
		t.Errorf("SA OF should grow with budget: %v at 0.2 vs %v at 0.8", saZ, saBig)
	}
}

// TestFig7Pinned pins Fig. 7, single-node failures one operator level
// at a time: active replication recovers fastest, and checkpoint
// recovery slows as the interval grows.
func TestFig7Pinned(t *testing.T) {
	t.Parallel()
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"Active-5s", []float64{0.302500000000002, 0.5640000000000018, 0.302500000000002, 0.5640000000000018}},
		{"Active-30s", []float64{0.3525000000000009, 0.6640000000000015, 0.3525000000000009, 0.6640000000000015}},
		{"Checkpoint-5s", []float64{1.2462144000000048, 2.0929144000000015, 1.342238400000003, 2.3955512000000034}},
		{"Checkpoint-15s", []float64{2.523814400000015, 4.543619200000016, 2.619038400000015, 4.799651200000014}},
		{"Checkpoint-30s", []float64{2.721409600000019, 4.889714400000017, 2.7822248000000176, 5.073737600000019}},
		{"Storm", []float64{2.9520000000000106, 4.513500000000009, 7.9920000000000595, 14.553500000000053}},
	})
}

// TestFig8Pinned pins Fig. 8, the correlated failure of all 15
// processing nodes: active replication recovers fastest, Storm's
// source replay next and 30 s checkpoints slowest.
func TestFig8Pinned(t *testing.T) {
	t.Parallel()
	r, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"Active-5s", []float64{0.402000000000001, 0.7520000000000024, 0.402000000000001, 0.7520000000000024}},
		{"Active-30s", []float64{0.6820000000000022, 1.3519999999999968, 0.6820000000000022, 1.3519999999999968}},
		{"Checkpoint-5s", []float64{5.090009600000009, 9.122009600000005, 5.404025600000004, 9.500025600000008}},
		{"Checkpoint-15s", []float64{12.356009600000029, 23.638009599999933, 12.632076800000021, 23.766025599999935}},
		{"Checkpoint-30s", []float64{24.35200959999996, 48.282028799999935, 24.41602559999994, 48.66607679999994}},
		{"Storm", []float64{3.216000000000008, 4.714000000000006, 8.256000000000057, 14.754000000000048}},
	})
	const x = "win:30s rate:2000tps"
	active, storm, ckpt := point(t, r, "Active-5s", x), point(t, r, "Storm", x), point(t, r, "Checkpoint-30s", x)
	if !(active < storm && storm < ckpt) {
		t.Errorf("%s: want Active-5s %v < Storm %v < Checkpoint-30s %v", x, active, storm, ckpt)
	}
}

// TestFig14bPinned pins Fig. 14(b) over the benchmark's 25 topologies:
// at highly parallel topologies SA's plans beat greedy's at a small
// budget.
func TestFig14bPinned(t *testing.T) {
	t.Parallel()
	r, err := Fig14b(25)
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"SA-para:10~20", []float64{0.08080213140409669, 0.2296519271308681, 0.47267018227933905, 0.6724917036425828, 0.8547418895245861}},
		{"SA-para:1~10", []float64{0.008857111553156992, 0.11461429653335588, 0.40026490985010177, 0.628490565429762, 0.8286680170100533}},
		{"Greedy-para:10~20", []float64{0.00881213988646965, 0.050050364987348335, 0.3649542403304036, 0.621017794452152, 0.8250790959658733}},
		{"Greedy-para:1~10", []float64{0.013430767241369464, 0.08994030611249532, 0.3375000350877363, 0.5928069151171279, 0.8120392606312714}},
	})
	if sa, g := point(t, r, "SA-para:10~20", "0.2"), point(t, r, "Greedy-para:10~20", "0.2"); sa <= g {
		t.Errorf("para 10~20 at 0.2: SA %v should beat Greedy %v", sa, g)
	}
}

// TestFig14cPinned pins Fig. 14(c) over the benchmark's 25 topologies:
// at the same budget SA's plans reach a higher OF on structured
// topologies than on fully partitioned ones.
func TestFig14cPinned(t *testing.T) {
	t.Parallel()
	r, err := Fig14c(25)
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"SA-Structure", []float64{0.006204327067978488, 0.06709271313242277, 0.4109164016833774, 0.6530561214156291, 0.8422879071092624}},
		{"SA-Full", []float64{0.003115087786693849, 0.02831725771847014, 0.2922167091243133, 0.5315376307887655, 0.7603586032155505}},
		{"Greedy-Structure", []float64{0.03117612570201819, 0.11572465276724614, 0.39846415127463336, 0.6542632445019723, 0.8362194069345675}},
		{"Greedy-Full", []float64{0.0013487166568559416, 0.09043240111439767, 0.3620603020421504, 0.6072319629093922, 0.8021371563223386}},
	})
	if st, full := point(t, r, "SA-Structure", "0.4"), point(t, r, "SA-Full", "0.4"); st <= full {
		t.Errorf("at 0.4: SA-Structure %v should exceed SA-Full %v", st, full)
	}
}

func TestFig14dShape(t *testing.T) {
	t.Parallel()
	r, err := Fig14d(6)
	if err != nil {
		t.Fatal(err)
	}
	assertPinned(t, r, []pinnedSeries{
		{"SA-NoJoin", []float64{0.04454308797323706, 0.14284983613323596, 0.4656112001781132, 0.6800441160144607, 0.853080791700577}},
		{"SA-Join-50%", []float64{0, 0.08890850290713607, 0.3659296398304453, 0.6278978154067296, 0.8106924154163407}},
		{"Greedy-NoJoin", []float64{0.012532247216905748, 0.1255740230937389, 0.36093674763183453, 0.5930097081334698, 0.7892232337880594}},
		{"Greedy-Join-50%", []float64{0, 0.07095146092236547, 0.26357278270588197, 0.5235970491390114, 0.781072513796286}},
	})
	// Joins reduce achievable OF at the same budget (§VI-C).
	noJoin := point(t, r, "SA-NoJoin", "0.4")
	join := point(t, r, "SA-Join-50%", "0.4")
	if join > noJoin {
		t.Errorf("join topologies OF %v should not exceed no-join %v", join, noJoin)
	}
}

func TestResultString(t *testing.T) {
	r := Result{
		Figure: "Fig. X", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: "1", Y: 0.5}}},
			{Name: "b", Points: []Point{{X: "2", Y: 1.5}}},
		},
	}
	s := r.String()
	for _, want := range []string{"Fig. X", "demo", "a", "b", "0.500", "1.500", "-"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}

	// Names of 16 characters or more widen their column to the name plus
	// 2, as Fig. 14b's and 14c's do, so neighbours stay apart and every
	// value lines up under its name's last character.
	long := Result{
		Figure: "Fig. 14b", Title: "long names", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "SA-para:1~10", Points: []Point{{X: "0.1", Y: 0.25}}},
			{Name: "Greedy-para:10~20", Points: []Point{{X: "0.1", Y: 0.5}}},
			{Name: "SA-Full", Points: []Point{{X: "0.1", Y: 1}}},
			{Name: "Greedy-Structure", Points: []Point{{X: "0.1", Y: 0.125}}},
		},
	}
	lines := strings.Split(long.String(), "\n")
	header := "x    " + "    SA-para:1~10" + "  Greedy-para:10~20" + "         SA-Full" + "  Greedy-Structure" + "    (y)"
	row := "0.1  " + "           0.250" + "              0.500" + "           1.000" + "             0.125"
	if len(lines) < 3 || lines[1] != header || lines[2] != row {
		t.Errorf("String() with long names:\n%s\nwant header and row\n%s\n%s", long.String(), header, row)
	}
}

// TestFig14RejectsNoTopologies checks that every Fig. 14 driver refuses
// a run over no topologies instead of printing a table of zeros.
func TestFig14RejectsNoTopologies(t *testing.T) {
	for i, fig := range []func(int) (Result, error){Fig14a, Fig14b, Fig14c, Fig14d} {
		for _, n := range []int{0, -1} {
			if _, err := fig(n); err == nil {
				t.Errorf("Fig14%c(%d): no error", 'a'+i, n)
			}
		}
	}
}

func TestTechniqueListMatchesPaper(t *testing.T) {
	want := []string{"Active-5s", "Active-30s", "Checkpoint-5s", "Checkpoint-15s", "Checkpoint-30s", "Storm"}
	if len(figTechniques) != len(want) {
		t.Fatalf("%d techniques", len(figTechniques))
	}
	for i, tech := range figTechniques {
		if tech.name != want[i] {
			t.Errorf("technique %d = %s, want %s", i, tech.name, want[i])
		}
	}
	if len(figConfigs) != 4 {
		t.Errorf("%d configs, want 4", len(figConfigs))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

var _ = engine.StrategyActive // keep the import for the technique table
