package embed

import (
	"math"
	"slices"
	"testing"
)

// tableField returns forces from a symmetric matrix keyed by (onto, by):
// positive entries are repulsion, negative ones attraction between peers.
type tableField struct {
	f     map[[2]int]float64
	peers map[int][]int

	ids    []int // bound point order
	rows   [][]int32
	on, by [][]float64
}

func (t *tableField) Bind(ids []int) {
	t.ids = ids
	at := make(map[int]int32, len(ids))
	for i, id := range ids {
		at[id] = int32(i)
	}
	t.rows = make([][]int32, len(ids))
	t.on = make([][]float64, len(ids))
	t.by = make([][]float64, len(ids))
	for i, id := range ids {
		for _, p := range t.peers[id] {
			j, ok := at[p]
			if !ok || int(j) == i || slices.Contains(t.rows[i], j) {
				continue
			}
			t.rows[i] = append(t.rows[i], j)
			t.on[i] = append(t.on[i], math.Min(t.f[[2]int{id, p}], 0))
			t.by[i] = append(t.by[i], math.Min(t.f[[2]int{p, id}], 0))
		}
	}
}

func (t *tableField) RepulsionRow(i int, js []int32, dst []float64) {
	for k, j := range js {
		dst[k] = math.Max(t.f[[2]int{t.ids[i], t.ids[j]}], 0)
	}
}

func (t *tableField) AttractionRow(i int) ([]int32, []float64, []float64) {
	return t.rows[i], t.on[i], t.by[i]
}

// mapResult is a Result keyed by id.
type mapResult struct {
	Pos        map[int]Point
	Iterations int
	Cost       []float64
}

// runMap is Run over an id-keyed init map (absent ids unknown), returning
// positions by id.
func runMap(ids []int, init map[int]Point, f SplitField, cfg Config) mapResult {
	pts := make([]Point, len(ids))
	known := make([]bool, len(ids))
	for k, id := range ids {
		pts[k], known[k] = init[id]
	}
	res := Run(ids, pts, known, f, cfg)
	out := mapResult{Pos: make(map[int]Point, len(ids)), Iterations: res.Iterations, Cost: res.Cost}
	for k, id := range ids {
		out.Pos[id] = res.Pos[k]
	}
	return out
}

func newTableField() *tableField {
	return &tableField{f: map[[2]int]float64{}, peers: map[int][]int{}}
}

func (t *tableField) set(a, b, v float64, i, j int) {
	t.f[[2]int{i, j}] = v
	t.f[[2]int{j, i}] = v
	if v < 0 {
		t.peers[i] = append(t.peers[i], j)
		t.peers[j] = append(t.peers[j], i)
	}
	_ = a
	_ = b
}

func TestAttractionPullsTogether(t *testing.T) {
	f := newTableField()
	f.set(0, 0, -0.8, 1, 2)
	init := map[int]Point{1: {X: -5, Y: 0}, 2: {X: 5, Y: 0}}
	res := runMap([]int{1, 2}, init, f, Config{Seed: 1, MaxIters: 20})
	d0 := Dist(init[1], init[2])
	d1 := Dist(res.Pos[1], res.Pos[2])
	if d1 >= d0 {
		t.Fatalf("attracted pair grew apart: %v -> %v", d0, d1)
	}
}

func TestRepulsionPushesApart(t *testing.T) {
	f := newTableField()
	f.set(0, 0, 0.9, 1, 2)
	init := map[int]Point{1: {X: -1, Y: 0}, 2: {X: 1, Y: 0}}
	res := runMap([]int{1, 2}, init, f, Config{Seed: 1, MaxIters: 20})
	d0 := Dist(init[1], init[2])
	d1 := Dist(res.Pos[1], res.Pos[2])
	if d1 <= d0 {
		t.Fatalf("repelled pair moved closer: %v -> %v", d0, d1)
	}
}

func TestMixedForcesSeparateGroups(t *testing.T) {
	// VMs 1,2 attract each other; 3,4 attract each other; the groups repel.
	f := newTableField()
	f.set(0, 0, -0.9, 1, 2)
	f.set(0, 0, -0.9, 3, 4)
	for _, a := range []int{1, 2} {
		for _, b := range []int{3, 4} {
			f.set(0, 0, 0.7, a, b)
		}
	}
	res := runMap([]int{1, 2, 3, 4}, nil, f, Config{Seed: 7, MaxIters: 50})
	intra := Dist(res.Pos[1], res.Pos[2]) + Dist(res.Pos[3], res.Pos[4])
	inter := Dist(res.Pos[1], res.Pos[3]) + Dist(res.Pos[2], res.Pos[4])
	if intra >= inter {
		t.Fatalf("groups not separated: intra %v, inter %v", intra, inter)
	}
}

func TestDeterministic(t *testing.T) {
	f := newTableField()
	f.set(0, 0, -0.5, 1, 2)
	f.set(0, 0, 0.5, 2, 3)
	run := func() mapResult { return runMap([]int{1, 2, 3}, nil, f, Config{Seed: 42, MaxIters: 20}) }
	a, b := run(), run()
	for _, id := range []int{1, 2, 3} {
		if a.Pos[id] != b.Pos[id] {
			t.Fatalf("position of %d diverged", id)
		}
	}
	if a.Iterations != b.Iterations {
		t.Fatal("iteration counts diverged")
	}
}

func TestRespectsMaxIters(t *testing.T) {
	f := newTableField()
	f.set(0, 0, 0.9, 1, 2)
	res := runMap([]int{1, 2}, nil, f, Config{Seed: 1, MaxIters: 5})
	if res.Iterations > 5 {
		t.Fatalf("ran %d iterations, cap 5", res.Iterations)
	}
}

func TestDisplacementClamped(t *testing.T) {
	// Many strong repellers at the same spot: displacement per iteration
	// must still be bounded by maxDisplace.
	f := newTableField()
	ids := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			f.set(0, 0, 1.0, ids[i], ids[j])
		}
	}
	init := map[int]Point{}
	for _, id := range ids {
		init[id] = Point{} // all coincident
	}
	res := runMap(ids, init, f, Config{Seed: 3, MaxIters: 1})
	for _, id := range ids {
		if d := Dist(res.Pos[id], Point{}); d > maxDisplace+1e-9 {
			t.Fatalf("point %d moved %v > clamp %v", id, d, maxDisplace)
		}
	}
}

func TestInheritedPositionsUsed(t *testing.T) {
	// No forces: only gravity moves a point, and it leaves the origin
	// where it is.
	f := newTableField()
	init := map[int]Point{7: {}}
	res := runMap([]int{7, 8}, init, f, Config{Seed: 9, MaxIters: 3})
	if res.Iterations != 3 {
		t.Fatalf("ran %d iterations, want 3", res.Iterations)
	}
	if res.Pos[7] != (Point{}) {
		t.Fatalf("inherited position not kept: %v", res.Pos[7])
	}
	// 8 had no position: it starts at the deterministic scatter and
	// gravity pulls it in for three steps.
	want := InitialPosition(8, InitRadius, 9)
	for range 3 {
		want.X, want.Y = step(want.X, want.Y, 0, 0)
	}
	if res.Pos[8] != want {
		t.Fatalf("scatter = %v, want %v", res.Pos[8], want)
	}
}

func TestSinglePointNoop(t *testing.T) {
	f := newTableField()
	res := runMap([]int{5}, nil, f, Config{Seed: 1, MaxIters: 20})
	if len(res.Pos) != 1 || res.Iterations != 0 {
		t.Fatal("single point should not iterate")
	}
}

func TestEmptyInput(t *testing.T) {
	res := runMap(nil, nil, newTableField(), Config{})
	if len(res.Pos) != 0 {
		t.Fatal("empty input should return empty result")
	}
}

func TestSampledModeStillSeparates(t *testing.T) {
	// Force sampled mode with a low threshold; attraction stays exact via
	// AttractionRow so the pair must still converge.
	f := newTableField()
	ids := make([]int, 30)
	for i := range ids {
		ids[i] = i
	}
	f.set(0, 0, -0.9, 0, 1)
	res := runMap(ids, nil, f, Config{Seed: 11, ExactThreshold: 4, SampleK: 8, MaxIters: 40})
	d := Dist(res.Pos[0], res.Pos[1])
	// The attracted pair should sit closer than the average pair.
	var sum float64
	var n int
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			sum += Dist(res.Pos[ids[i]], res.Pos[ids[j]])
			n++
		}
	}
	if d >= sum/float64(n) {
		t.Fatalf("attracted pair distance %v not below mean %v in sampled mode", d, sum/float64(n))
	}
}

func TestCostHistoryRecorded(t *testing.T) {
	f := newTableField()
	f.set(0, 0, -0.5, 1, 2)
	res := runMap([]int{1, 2}, map[int]Point{1: {X: -4}, 2: {X: 4}}, f, Config{Seed: 1, MaxIters: 10})
	if len(res.Cost) != res.Iterations {
		t.Fatalf("cost history %d entries, %d iterations", len(res.Cost), res.Iterations)
	}
}

func TestInitialPositionWithinRadius(t *testing.T) {
	for id := 0; id < 200; id++ {
		p := InitialPosition(id, InitRadius, 77)
		if d := math.Hypot(p.X, p.Y); d > InitRadius {
			t.Fatalf("scatter %v outside radius", d)
		}
	}
}

func TestDistMetricBasics(t *testing.T) {
	a := Point{X: 0, Y: 0}
	b := Point{X: 3, Y: 4}
	if Dist(a, b) != 5 {
		t.Fatalf("dist = %v", Dist(a, b))
	}
	if Dist(a, a) != 0 {
		t.Fatal("self distance not 0")
	}
	if Dist(a, b) != Dist(b, a) {
		t.Fatal("distance not symmetric")
	}
}
