package pareto

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"geovmp/internal/rng"
)

// randPoints draws n points with d objectives in [0,1) from a seeded
// stream, named by index so orderings are total.
func randPoints(r *rng.Source, n, d int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		v := make([]float64, d)
		for k := range v {
			v[k] = r.Float64()
		}
		pts[i] = Point{Name: fmt.Sprintf("p%04d", i), V: v}
	}
	return pts
}

// TestDominanceStrictPartialOrder property-checks that Dominates is a
// strict partial order over random vectors: irreflexive, asymmetric, and
// transitive whenever the premises hold.
func TestDominanceStrictPartialOrder(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(4)
		pts := randPoints(r, 12, d)
		// Duplicates and dominated copies make the premises fire often.
		pts = append(pts, Point{Name: "dup", V: append([]float64(nil), pts[0].V...)})
		shifted := append([]float64(nil), pts[1].V...)
		shifted[0] += 0.5
		pts = append(pts, Point{Name: "dom", V: shifted})
		for i := range pts {
			if Dominates(pts[i].V, pts[i].V) {
				t.Fatalf("trial %d: %q dominates itself", trial, pts[i].Name)
			}
			for j := range pts {
				if Dominates(pts[i].V, pts[j].V) && Dominates(pts[j].V, pts[i].V) {
					t.Fatalf("trial %d: %q and %q dominate each other", trial, pts[i].Name, pts[j].Name)
				}
				for k := range pts {
					if Dominates(pts[i].V, pts[j].V) && Dominates(pts[j].V, pts[k].V) && !Dominates(pts[i].V, pts[k].V) {
						t.Fatalf("trial %d: transitivity broken at %q -> %q -> %q", trial, pts[i].Name, pts[j].Name, pts[k].Name)
					}
				}
			}
		}
	}
}

func TestDominatesEdgeCases(t *testing.T) {
	if Dominates([]float64{1, 2}, []float64{1, 2, 3}) {
		t.Fatal("mismatched lengths must not dominate")
	}
	if Dominates(nil, nil) {
		t.Fatal("empty vectors must not dominate")
	}
	if Dominates([]float64{math.NaN()}, []float64{1}) || Dominates([]float64{0}, []float64{math.NaN()}) {
		t.Fatal("NaN components must not participate in dominance")
	}
	if !Dominates([]float64{1, 1}, []float64{1, 2}) {
		t.Fatal("weakly-better-strictly-somewhere must dominate")
	}
	if Dominates([]float64{1, 2}, []float64{1, 2}) {
		t.Fatal("equal vectors must not dominate")
	}
}

// TestNonDominatedSortPermutationInvariant property-checks the determinism
// contract: sorting any permutation of a point set yields the same fronts
// with the same internal order, modulo the relabeling of indexes.
func TestNonDominatedSortPermutationInvariant(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		pts := randPoints(r, 3+r.Intn(30), 1+r.Intn(3))
		base := frontsAsNames(pts, NonDominatedSort(pts))
		perm := r.Perm(len(pts))
		shuffled := make([]Point, len(pts))
		for i, j := range perm {
			shuffled[i] = pts[j]
		}
		got := frontsAsNames(shuffled, NonDominatedSort(shuffled))
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("trial %d: fronts differ under permutation:\nbase: %v\ngot:  %v", trial, base, got)
		}
	}
}

func frontsAsNames(pts []Point, fronts [][]int) [][]string {
	out := make([][]string, len(fronts))
	for li, front := range fronts {
		for _, i := range front {
			out[li] = append(out[li], pts[i].Name)
		}
	}
	return out
}

// TestNonDominatedSortLayering checks the rank semantics on a hand-built
// set: every point of front k must be dominated by some point of front k-1
// and by no point of its own front.
func TestNonDominatedSortLayering(t *testing.T) {
	r := rng.New(3)
	pts := randPoints(r, 40, 2)
	fronts := NonDominatedSort(pts)
	total := 0
	for li, front := range fronts {
		total += len(front)
		for _, i := range front {
			for _, j := range front {
				if i != j && Dominates(pts[j].V, pts[i].V) {
					t.Fatalf("front %d: %q dominated by front peer %q", li, pts[i].Name, pts[j].Name)
				}
			}
			if li == 0 {
				continue
			}
			dominated := false
			for _, j := range fronts[li-1] {
				if Dominates(pts[j].V, pts[i].V) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("front %d: %q not dominated by any point of front %d", li, pts[i].Name, li-1)
			}
		}
	}
	if total != len(pts) {
		t.Fatalf("fronts cover %d of %d points", total, len(pts))
	}
}

// TestHypervolumeKnownValues pins exact hypervolumes computed by hand.
func TestHypervolumeKnownValues(t *testing.T) {
	ref := []float64{1, 1}
	cases := []struct {
		pts  []Point
		want float64
	}{
		{[]Point{{Name: "a", V: []float64{0, 0}}}, 1},
		{[]Point{{Name: "a", V: []float64{0.5, 0.5}}}, 0.25},
		// Two staircase points: 0.5x1.0 + 0.5x0.5.
		{[]Point{{Name: "a", V: []float64{0, 0.5}}, {Name: "b", V: []float64{0.5, 0}}}, 0.75},
		// A dominated point adds nothing.
		{[]Point{{Name: "a", V: []float64{0, 0.5}}, {Name: "b", V: []float64{0.5, 0}},
			{Name: "c", V: []float64{0.6, 0.6}}}, 0.75},
		// Points outside the reference contribute nothing.
		{[]Point{{Name: "a", V: []float64{2, 0}}}, 0},
		{nil, 0},
	}
	for i, c := range cases {
		if got := Hypervolume(c.pts, ref); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("case %d: hypervolume %v, want %v", i, got, c.want)
		}
	}
	// A 3D staircase: two cubes overlapping in one octant.
	got := Hypervolume([]Point{
		{Name: "a", V: []float64{0, 0.5, 0.5}},
		{Name: "b", V: []float64{0.5, 0, 0}},
	}, []float64{1, 1, 1})
	// Box a: 1x0.5x0.5 = 0.25; box b: 0.5x1x1 = 0.5; overlap 0.5x0.5x0.5.
	want := 0.25 + 0.5 - 0.125
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("3D hypervolume %v, want %v", got, want)
	}
}

// TestHypervolumeMonotone property-checks the indicator's two monotonicity
// laws: adding a non-dominated point strictly inside the reference strictly
// increases the hypervolume; adding a dominated point leaves it unchanged.
func TestHypervolumeMonotone(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 100; trial++ {
		d := 2 + r.Intn(2)
		pts := randPoints(r, 2+r.Intn(10), d)
		ref := make([]float64, d)
		for k := range ref {
			ref[k] = 1.05
		}
		base := Hypervolume(pts, ref)

		// A fresh random point strictly inside the reference box: the
		// hypervolume may only grow, and must grow strictly when no
		// existing point weakly dominates it.
		cand := randPoints(r, 1, d)[0]
		cand.Name = "cand"
		weaklyDominated := false
		for i := range pts {
			if Dominates(pts[i].V, cand.V) || reflect.DeepEqual(pts[i].V, cand.V) {
				weaklyDominated = true
				break
			}
		}
		grown := Hypervolume(append(append([]Point(nil), pts...), cand), ref)
		if grown < base-1e-12 {
			t.Fatalf("trial %d: hypervolume shrank from %v to %v on adding a point", trial, base, grown)
		}
		if !weaklyDominated && grown <= base+1e-15 {
			t.Fatalf("trial %d: non-dominated insert did not grow hypervolume (%v -> %v)", trial, base, grown)
		}

		// A point dominated by an existing one adds exactly nothing.
		dom := append([]float64(nil), pts[0].V...)
		for k := range dom {
			dom[k] += 0.01
		}
		same := Hypervolume(append(append([]Point(nil), pts...), Point{Name: "dom", V: dom}), ref)
		if math.Abs(same-base) > 1e-12 {
			t.Fatalf("trial %d: dominated insert changed hypervolume (%v -> %v)", trial, base, same)
		}
	}
}

func TestReference(t *testing.T) {
	pts := []Point{
		{Name: "a", V: []float64{0, 10}},
		{Name: "b", V: []float64{2, 4}},
	}
	ref := Reference(pts, 0.05)
	want := []float64{2 + 0.05*2, 10 + 0.05*6}
	for k := range want {
		if math.Abs(ref[k]-want[k]) > 1e-12 {
			t.Fatalf("ref[%d] = %v, want %v", k, ref[k], want[k])
		}
	}
	// Degenerate component still gets nonzero headroom.
	ref = Reference([]Point{{Name: "a", V: []float64{3}}, {Name: "b", V: []float64{3}}}, 0.05)
	if !(ref[0] > 3) {
		t.Fatalf("degenerate reference %v not beyond the point", ref[0])
	}
}

// TestKnee2D checks the classic two-objective knee: on a convex front the
// point with the sharpest bend wins, not the extremes.
func TestKnee2D(t *testing.T) {
	pts := []Point{
		{Name: "a", V: []float64{0, 10}},
		{Name: "k", V: []float64{1, 1}}, // far below the a-c chord
		{Name: "c", V: []float64{10, 0}},
	}
	front := NonDominatedSort(pts)[0]
	if len(front) != 3 {
		t.Fatalf("front size %d, want 3", len(front))
	}
	knee := Knee(pts, front)
	if pts[knee].Name != "k" {
		t.Fatalf("knee picked %q, want k", pts[knee].Name)
	}
	if Knee(pts, nil) != -1 {
		t.Fatal("empty front must return -1")
	}
	if got := Knee(pts, []int{2}); got != 2 {
		t.Fatalf("single-point front knee = %d, want 2", got)
	}
}

// TestKneeHighDim checks the distance-to-ideal fallback for 3+ objectives.
func TestKneeHighDim(t *testing.T) {
	pts := []Point{
		{Name: "a", V: []float64{0, 1, 1}},
		{Name: "b", V: []float64{1, 0, 1}},
		{Name: "mid", V: []float64{0.2, 0.2, 0.2}},
		{Name: "c", V: []float64{1, 1, 0}},
	}
	front := NonDominatedSort(pts)[0]
	knee := Knee(pts, front)
	if pts[knee].Name != "mid" {
		t.Fatalf("knee picked %q, want mid", pts[knee].Name)
	}
}

// TestKneeNaNRobust checks a NaN objective cannot poison the normalized
// coordinates or win the knee: NaN components rank pessimistic (1) while
// the finite columns keep their real ranges.
func TestKneeNaNRobust(t *testing.T) {
	pts := []Point{
		{Name: "a", V: []float64{0, 10}},
		{Name: "k", V: []float64{1, 1}},
		{Name: "c", V: []float64{10, 0}},
		{Name: "nan", V: []float64{math.NaN(), -5}}, // never dominated, joins the front
	}
	front := NonDominatedSort(pts)[0]
	if len(front) != 4 {
		t.Fatalf("front size %d, want 4 (NaN point is non-comparable)", len(front))
	}
	knee := Knee(pts, front)
	if pts[knee].Name == "nan" {
		t.Fatal("NaN point won the knee")
	}
	if s := Spread(pts, front); math.IsNaN(s) {
		t.Fatal("spread is NaN")
	}
}

func TestSpread(t *testing.T) {
	// A perfectly uniform 2D staircase front has zero spread.
	var uniform []Point
	for i := 0; i <= 4; i++ {
		uniform = append(uniform, Point{Name: fmt.Sprintf("u%d", i), V: []float64{float64(i), float64(4 - i)}})
	}
	if s := Spread(uniform, NonDominatedSort(uniform)[0]); math.Abs(s) > 1e-12 {
		t.Fatalf("uniform front spread %v, want 0", s)
	}
	// A clumped front spreads worse than the uniform one.
	clumped := []Point{
		{Name: "c0", V: []float64{0, 4}},
		{Name: "c1", V: []float64{0.1, 3.9}},
		{Name: "c2", V: []float64{0.2, 3.8}},
		{Name: "c3", V: []float64{4, 0}},
	}
	if s := Spread(clumped, NonDominatedSort(clumped)[0]); s <= 0 {
		t.Fatalf("clumped front spread %v, want > 0", s)
	}
	if s := Spread(uniform[:2], []int{0, 1}); s != 0 {
		t.Fatalf("two-point front spread %v, want 0", s)
	}
}

// TestResolveStableOrdering checks Resolve's canonical point order and that
// JSON export is independent of input order.
func TestResolveStableOrdering(t *testing.T) {
	mk := func(order []int) *FrontierSet {
		base := []FrontierPoint{
			{Name: "alpha=0.1000", Knob: 0.1, HasKnob: true, V: []float64{3, 1}},
			{Name: "alpha=0.9000", Knob: 0.9, HasKnob: true, V: []float64{1, 3}},
			{Name: "alpha=0.5000", Knob: 0.5, HasKnob: true, V: []float64{2, 2}},
			{Name: "Net-aware", V: []float64{1.5, 4}},
			{Name: "Ener-aware", V: []float64{4, 1.5}},
		}
		pts := make([]FrontierPoint, len(order))
		for i, j := range order {
			pts[i] = base[j]
		}
		sf, err := Resolve("s", []string{"cost", "resp"}, pts, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		return &FrontierSet{Objectives: sf.Objectives, Seeds: 1, Scenarios: []*ScenarioFrontier{sf}}
	}
	a := mk([]int{0, 1, 2, 3, 4})
	b := mk([]int{4, 2, 0, 3, 1})
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("JSON depends on input order:\n%s\nvs\n%s", aj, bj)
	}
	sf := a.Scenarios[0]
	for i := 1; i < len(sf.Points); i++ {
		prev, cur := sf.Points[i-1], sf.Points[i]
		if !prev.HasKnob && cur.HasKnob {
			t.Fatal("baseline ordered before a knob point")
		}
		if prev.HasKnob && cur.HasKnob && prev.Knob > cur.Knob {
			t.Fatal("knob points not ascending")
		}
	}
	if kp := sf.KneePoint(); kp == nil {
		t.Fatal("no knee on a non-empty front")
	}
}

// TestAdaptiveSyntheticCurve drives the adaptive driver over an analytic
// trade-off curve and checks (a) determinism, (b) that at equal budget it
// reaches at least the uniform grid's hypervolume, and (c) that waves batch
// multiple refinements.
func TestAdaptiveSyntheticCurve(t *testing.T) {
	// A front with all its curvature near t=1: uniform grids waste points
	// on the flat region, the adaptive driver should not.
	curve := func(tt float64) []float64 {
		return []float64{math.Pow(tt, 8), math.Pow(1-tt, 8)}
	}
	eval := func(knobs []float64) ([][]float64, error) {
		out := make([][]float64, len(knobs))
		for i, k := range knobs {
			out[i] = curve(k)
		}
		return out, nil
	}
	cfg := AdaptiveConfig{Lo: 0, Hi: 1, Coarse: 5, Budget: 13, WaveSize: 3}
	a, err := Adaptive(cfg, eval)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Adaptive(cfg, eval)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("adaptive driver is not deterministic")
	}
	if len(a.Knobs) != cfg.Budget {
		t.Fatalf("adaptive spent %d evaluations, budget %d", len(a.Knobs), cfg.Budget)
	}
	if a.Waves < 3 {
		t.Fatalf("expected multiple refinement waves, got %d", a.Waves)
	}
	for i := 1; i < len(a.Knobs); i++ {
		if a.Knobs[i-1] >= a.Knobs[i] {
			t.Fatal("knobs not strictly ascending")
		}
	}

	toPoints := func(knobs []float64, vals [][]float64) []Point {
		pts := make([]Point, len(knobs))
		for i := range knobs {
			pts[i] = Point{Name: fmt.Sprintf("t=%.6f", knobs[i]), V: vals[i]}
		}
		return pts
	}
	grid := UniformGrid(0, 1, cfg.Budget)
	gridVals, _ := eval(grid)
	union := append(toPoints(grid, gridVals), toPoints(a.Knobs, a.Values)...)
	ref := Reference(union, 0.05)
	hvGrid := Hypervolume(toPoints(grid, gridVals), ref)
	hvAdaptive := Hypervolume(toPoints(a.Knobs, a.Values), ref)
	if hvAdaptive <= hvGrid {
		t.Fatalf("adaptive hypervolume %v not above uniform grid %v at equal budget %d", hvAdaptive, hvGrid, cfg.Budget)
	}
}

// TestAdaptiveHonorsSmallBudget pins the budget contract: an explicit
// budget below the coarse grid shrinks the grid instead of silently
// evaluating more points than the caller allowed.
func TestAdaptiveHonorsSmallBudget(t *testing.T) {
	evals := 0
	res, err := Adaptive(AdaptiveConfig{Lo: 0, Hi: 1, Coarse: 5, Budget: 3, WaveSize: 4}, func(knobs []float64) ([][]float64, error) {
		evals += len(knobs)
		out := make([][]float64, len(knobs))
		for i, k := range knobs {
			out[i] = []float64{k, 1 - k}
		}
		return out, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if evals != 3 || len(res.Knobs) != 3 {
		t.Fatalf("budget 3 spent %d evaluations (%d knobs)", evals, len(res.Knobs))
	}
}

// TestAdaptiveErrors covers the driver's failure paths: a malformed
// configuration is refused before any evaluation, and eval's errors and
// misaligned results propagate.
func TestAdaptiveErrors(t *testing.T) {
	ok := AdaptiveConfig{Lo: 0, Hi: 1, Coarse: 5, Budget: 12, WaveSize: 4}
	for _, bad := range []AdaptiveConfig{
		{Lo: 1, Hi: 1, Coarse: 5, Budget: 12, WaveSize: 4},
		{Lo: 0, Hi: math.NaN(), Coarse: 5, Budget: 12, WaveSize: 4},
		{Lo: 0, Hi: 1, Coarse: 1, Budget: 12, WaveSize: 4},
		{Lo: 0, Hi: 1, Coarse: 5, Budget: 0, WaveSize: 4},
		{Lo: 0, Hi: 1, Coarse: 5, Budget: 12, WaveSize: 0},
	} {
		if _, err := Adaptive(bad, nil); err == nil {
			t.Fatalf("%+v: malformed configuration must error", bad)
		}
	}
	_, err := Adaptive(ok, func(knobs []float64) ([][]float64, error) {
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("eval error must propagate")
	}
	_, err = Adaptive(ok, func(knobs []float64) ([][]float64, error) {
		return make([][]float64, len(knobs)+1), nil
	})
	if err == nil {
		t.Fatal("misaligned eval result must error")
	}
}

// sortedOracle is the driver's former wave merge, kept as the oracle for
// merge: append the wave, then index-sort the whole set stably by knob
// into fresh slices.
func sortedOracle(r *AdaptiveResult, knobs []float64, vals [][]float64) {
	r.Knobs = append(r.Knobs, knobs...)
	r.Values = append(r.Values, vals...)
	order := make([]int, len(r.Knobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r.Knobs[order[a]] < r.Knobs[order[b]] })
	knobsSorted := make([]float64, len(order))
	valsSorted := make([][]float64, len(order))
	for i, j := range order {
		knobsSorted[i] = r.Knobs[j]
		valsSorted[i] = r.Values[j]
	}
	r.Knobs, r.Values = knobsSorted, valsSorted
}

// TestAdaptiveMergeMatchesSortOracle replays the waves of random adaptive
// runs — random configurations, random objective vectors — through merge
// and the former index sort: after every wave both hold the same knob
// order and the same value vectors (by identity) in the same order, and
// the driver's result is the merged set.
func TestAdaptiveMergeMatchesSortOracle(t *testing.T) {
	src := rng.New(29)
	for run := 0; run < 300; run++ {
		lo := src.Range(-2, 2)
		cfg := AdaptiveConfig{
			Lo: lo, Hi: lo + src.Range(0.001, 3),
			Coarse:   2 + src.Intn(6),
			Budget:   1 + src.Intn(20),
			WaveSize: 1 + src.Intn(5),
		}
		d := 2 + src.Intn(2)
		var waves [][]float64
		var waveVals [][][]float64
		res, err := Adaptive(cfg, func(knobs []float64) ([][]float64, error) {
			out := make([][]float64, len(knobs))
			for i := range out {
				out[i] = make([]float64, d)
				for k := range out[i] {
					out[i][k] = src.Float64()
				}
			}
			waves = append(waves, append([]float64(nil), knobs...))
			waveVals = append(waveVals, out)
			return out, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		merged, oracle := &AdaptiveResult{}, &AdaptiveResult{}
		for w := range waves {
			merged.merge(waves[w], waveVals[w])
			sortedOracle(oracle, waves[w], waveVals[w])
			if !slices.Equal(merged.Knobs, oracle.Knobs) {
				t.Fatalf("run %d %+v wave %d: knobs %v, oracle %v", run, cfg, w, merged.Knobs, oracle.Knobs)
			}
			for i := range oracle.Values {
				if &merged.Values[i][0] != &oracle.Values[i][0] {
					t.Fatalf("run %d %+v wave %d: value %d out of order", run, cfg, w, i)
				}
			}
		}
		if !slices.Equal(res.Knobs, merged.Knobs) || res.Waves != len(waves) {
			t.Fatalf("run %d %+v: driver result %v over %d waves, replay %v over %d", run, cfg, res.Knobs, res.Waves, merged.Knobs, len(waves))
		}
		for i := range res.Values {
			if &res.Values[i][0] != &merged.Values[i][0] {
				t.Fatalf("run %d %+v: driver value %d out of order", run, cfg, i)
			}
		}
	}
}

// TestKnobLabelPrecisionScalesWithRange pins label uniqueness for narrow
// knob ranges: the decimals grow with the range's leading zeros so two
// distinct bisection knobs rendered at KnobDecimals (as the report table
// renders them) can never share a name.
func TestKnobLabelPrecisionScalesWithRange(t *testing.T) {
	cases := []struct {
		lo, hi float64
		a, b   float64
	}{
		{0, 1, 0.0625, 0.125},
		{0, 0.001, 0.0000625, 0.000125},
		{0, 0.5, 0.000125, 0.00025},
	}
	for _, c := range cases {
		d := KnobDecimals(c.lo, c.hi)
		la, lb := fmt.Sprintf("k=%.*f", d, c.a), fmt.Sprintf("k=%.*f", d, c.b)
		if la == lb {
			t.Fatalf("range [%v, %v]: knobs %v and %v share label %q", c.lo, c.hi, c.a, c.b, la)
		}
	}
}
