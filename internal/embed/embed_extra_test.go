package embed

import (
	"math"
	"testing"
)

// TestRepulsionWeightSaturatesForSmallFleets pins the shipped kappa: the
// weight is 1 (literal Eq. 6) up to kappa+1 points and kappa/(n-1) above,
// bit-equal to the formula over a runtime kappa.
func TestRepulsionWeightSaturatesForSmallFleets(t *testing.T) {
	kappa := 4.0
	for _, n := range []int{2, 5, 9, 801} {
		want := min(1, kappa/float64(n-1))
		if w := repulsionWeight(n); math.Float64bits(w) != math.Float64bits(want) {
			t.Fatalf("n=%d weight = %v, want %v", n, w, want)
		}
	}
}

// TestStopRuleThresholdPinned pins the shipped stop rule to a runtime
// fraction: from iteration 2 on, a cost just below frac*peak stops and
// frac*peak itself does not; a zero peak never stops.
func TestStopRuleThresholdPinned(t *testing.T) {
	frac := 0.15
	for _, peak := range []float64{1, 0.7, 3.3, 1e-3, 123.456} {
		thr := frac * peak
		if !stopNow(2, math.Nextafter(thr, math.Inf(-1)), peak) {
			t.Fatalf("peak %v: cost below %v did not stop", peak, thr)
		}
		if stopNow(2, thr, peak) {
			t.Fatalf("peak %v: cost %v stopped", peak, thr)
		}
		if stopNow(1, 0, peak) {
			t.Fatalf("peak %v: stopped before iteration 2", peak)
		}
	}
	if stopNow(5, -1, 0) {
		t.Fatal("zero peak stopped")
	}
}

// TestStepPinned pins the shipped displacement step to the same arithmetic
// over runtime t, clamp and gravity, on both sides of the clamp.
func TestStepPinned(t *testing.T) {
	ts, clamp, g := 1.0, 1.0, 0.02
	for _, c := range [][4]float64{{3, -4, 0.3, 0.1}, {0.7, 0.2, -0.9, 1.3}, {-12, 5, 40, -7}, {0, 0, 0, 0}} {
		x, y, fx, fy := c[0], c[1], c[2], c[3]
		half := 0.5 * ts * ts
		dx, dy := half*fx-g*x, half*fy-g*y
		if m := math.Sqrt(dx*dx + dy*dy); m > clamp {
			s := clamp / m
			dx *= s
			dy *= s
		}
		gx, gy := step(x, y, fx, fy)
		if math.Float64bits(gx) != math.Float64bits(x+dx) || math.Float64bits(gy) != math.Float64bits(y+dy) {
			t.Fatalf("step(%v) = (%v, %v), want (%v, %v)", c, gx, gy, x+dx, y+dy)
		}
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
	res := runMap(ids, nil, f, Config{Seed: 5, MaxIters: 300})
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
	res := runMap([]int{1, 2}, init, f, Config{Seed: 1, MaxIters: 500})
	if res.Iterations >= 500 {
		t.Fatalf("did not stop early: %d iterations", res.Iterations)
	}
	if d := Dist(res.Pos[1], res.Pos[2]); d > 40 {
		t.Fatalf("attracted pair did not converge: %v", d)
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
	a := Run([]int{1, 2, 3}, init, known, f, Config{Seed: 4, MaxIters: 20})
	// The init slice must not be mutated.
	if init[0] != (Point{X: 1, Y: 1}) || init[1] != (Point{}) {
		t.Fatal("Run mutated the init slice")
	}
	b := Run([]int{1, 2, 3}, init, known, f, Config{Seed: 4, MaxIters: 20})
	for id := range a.Pos {
		if a.Pos[id] != b.Pos[id] {
			t.Fatal("repeat run diverged")
		}
	}
}
