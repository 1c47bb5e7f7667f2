package embed

import (
	"math"
	"testing"
)

func TestRepulsionWeightSaturatesForSmallFleets(t *testing.T) {
	cfg := Config{RepulsionScale: 8}
	cfg.applyDefaults()
	if w := cfg.repulsionWeight(5); w != 1 {
		t.Fatalf("small-fleet weight = %v, want 1 (literal Eq. 6)", w)
	}
	if w := cfg.repulsionWeight(9); w != 1 {
		t.Fatalf("n=9 weight = %v, want 1", w)
	}
	if w := cfg.repulsionWeight(801); math.Abs(w-0.01) > 1e-12 {
		t.Fatalf("n=801 weight = %v, want 0.01", w)
	}
}

func TestRepulsionWeightDisabled(t *testing.T) {
	cfg := Config{RepulsionScale: -1}
	if w := cfg.repulsionWeight(10000); w != 1 {
		t.Fatalf("disabled scale weight = %v, want 1", w)
	}
}

func TestGravityBoundsRadius(t *testing.T) {
	// A pure-repulsion cloud with gravity must not expand without bound.
	f := newTableField()
	ids := make([]int, 12)
	for i := range ids {
		ids[i] = i
		for j := i + 1; j < 12; j++ {
			f.set(0, 0, 1.0, i, j)
		}
	}
	res := runMap(ids, nil, f, Config{Seed: 5, MaxIters: 300, Gravity: 0.05, StopFrac: -1})
	for _, id := range ids {
		if r := math.Hypot(res.Pos[id].X, res.Pos[id].Y); r > 200 {
			t.Fatalf("point %d escaped to radius %v", id, r)
		}
	}
}

func TestStopFracStopsEarly(t *testing.T) {
	// Strong attraction converges: with the fraction-of-peak rule the run
	// must stop before MaxIters once movement stops paying.
	f := newTableField()
	f.set(0, 0, -1.0, 1, 2)
	init := map[int]Point{1: {X: -20}, 2: {X: 20}}
	res := runMap([]int{1, 2}, init, f, Config{Seed: 1, MaxIters: 500, StopFrac: 0.15})
	if res.Iterations >= 500 {
		t.Fatalf("did not stop early: %d iterations", res.Iterations)
	}
	if d := Dist(res.Pos[1], res.Pos[2]); d > 40 {
		t.Fatalf("attracted pair did not converge: %v", d)
	}
}

func TestStopFracDisabledRunsToCap(t *testing.T) {
	f := newTableField()
	f.set(0, 0, -1.0, 1, 2)
	res := runMap([]int{1, 2}, map[int]Point{1: {X: -9}, 2: {X: 9}}, f,
		Config{Seed: 1, MaxIters: 25, StopFrac: -1, Gravity: -1})
	if res.Iterations != 25 {
		t.Fatalf("StopFrac -1 should run to MaxIters: %d", res.Iterations)
	}
}

func TestExactAndSampledModesAgreeOnPairSign(t *testing.T) {
	// The same two-group problem solved in both modes must separate groups
	// both times (magnitudes may differ).
	build := func() *tableField {
		f := newTableField()
		f.set(0, 0, -0.9, 0, 1)
		f.set(0, 0, -0.9, 2, 3)
		for _, a := range []int{0, 1} {
			for _, b := range []int{2, 3} {
				f.set(0, 0, 0.7, a, b)
			}
		}
		return f
	}
	check := func(name string, cfg Config) {
		res := runMap([]int{0, 1, 2, 3}, nil, build(), cfg)
		intra := Dist(res.Pos[0], res.Pos[1]) + Dist(res.Pos[2], res.Pos[3])
		inter := Dist(res.Pos[0], res.Pos[2]) + Dist(res.Pos[1], res.Pos[3])
		if intra >= inter {
			t.Fatalf("%s: groups not separated (intra %v inter %v)", name, intra, inter)
		}
	}
	check("exact", Config{Seed: 9, MaxIters: 60})
	check("sampled", Config{Seed: 9, MaxIters: 60, ExactThreshold: 2, SampleK: 16})
}

func TestRunIsPureFunctionOfInputs(t *testing.T) {
	f := newTableField()
	f.set(0, 0, -0.4, 1, 2)
	f.set(0, 0, 0.6, 1, 3)
	init := []Point{{X: 1, Y: 1}, {}, {}}
	known := []bool{true, false, false}
	a := Run([]int{1, 2, 3}, init, known, f, Config{Seed: 4})
	// The init slice must not be mutated.
	if init[0] != (Point{X: 1, Y: 1}) || init[1] != (Point{}) {
		t.Fatal("Run mutated the init slice")
	}
	b := Run([]int{1, 2, 3}, init, known, f, Config{Seed: 4})
	for id := range a.Pos {
		if a.Pos[id] != b.Pos[id] {
			t.Fatal("repeat run diverged")
		}
	}
}
