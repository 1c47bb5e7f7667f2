package core

import (
	"math"
	"slices"
	"testing"

	"geovmp/internal/policy"
	"geovmp/internal/units"
)

func TestCapsRespectCeilings(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 6, nil)
	// Monstrous free energy everywhere: caps must clamp to each DC's
	// physical ceiling.
	for i := range in.RenewForecast {
		in.RenewForecast[i] = units.Energy(1e15)
	}
	// Monstrous demand so the budget does not bind first.
	in.LastEnergy[0] = units.Energy(1e15)
	caps := c.caps(in)
	for i, d := range in.DCs {
		ceil := float64(d.SlotEnergyCeiling(in.Slot))
		if caps[i] > ceil+1 {
			t.Fatalf("DC %d cap %v above ceiling %v", i, caps[i], ceil)
		}
	}
}

func TestCapsColdStartUsesVMEnergies(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 10, nil) // LastEnergy all zero
	caps := c.caps(in)
	var sum float64
	for _, v := range caps {
		sum += v
	}
	// 10 VMs x 1000 J x 1.1 headroom.
	if math.Abs(sum-11000) > 200 {
		t.Fatalf("cold-start caps sum %v, want ~11000", sum)
	}
}

// TestCapsBudgetIsDemandTimesHeadroom pins the shipped headroom: with
// every DC far below its ceiling, the caps sum to the last slot's energy
// times 1.10.
func TestCapsBudgetIsDemandTimesHeadroom(t *testing.T) {
	for _, demand := range []float64{1000, 5000} {
		c := New(0.9, 7)
		in := buildInput(t, 10, nil)
		in.LastEnergy[0] = units.Energy(demand)
		var sum float64
		for _, v := range c.caps(in) {
			sum += v
		}
		if want := demand * 1.10; math.Abs(sum-want) > 1e-9*want {
			t.Fatalf("demand %v: caps sum %v, want %v", demand, sum, want)
		}
	}
}

// TestCapsSmoothingArithmeticPinned pins the caps EMA bit for bit to its
// runtime formula: the second slot's caps are (1-s)*raw + s*prev with the
// weight s held in a float64 variable, which is what the constant computes
// only while it stays typed (an untyped 1-0.8 folds to 0.2 exactly; the
// float64 difference is 0.19999999999999996).
func TestCapsSmoothingArithmeticPinned(t *testing.T) {
	s := 0.8
	first := func(in *policy.Input) []float64 { return New(0.9, 7).caps(in) }
	in1 := buildInput(t, 6, nil)
	in1.RenewForecast[0] = units.Energy(3e4)
	in2 := buildInput(t, 6, nil)
	in2.RenewForecast[2] = units.Energy(7e3)
	in2.LastEnergy[1] = units.Energy(9137)
	prev, raw := first(in1), first(in2)

	c := New(0.9, 7)
	c.caps(in1)
	got := c.caps(in2)
	differs := false
	for i := range got {
		want := (1-s)*raw[i] + s*prev[i]
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("DC %d: smoothed cap %v, want %v", i, got[i], want)
		}
		differs = differs || want != 0.2*raw[i]+0.8*prev[i]
	}
	if !differs {
		t.Fatal("no cap tells 1-s from 0.2: the case checks too little")
	}
}

func TestPlaceWithZeroVMs(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 0, nil)
	p := c.Place(in)
	if len(p.DCOf) != 0 || len(p.Moves) != 0 {
		t.Fatal("empty fleet produced placements")
	}
}

func TestLastEmbedDiagnosticsPopulated(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 16, nil)
	c.Place(in)
	if c.LastEmbedIters <= 0 {
		t.Fatal("embed iterations not recorded")
	}
	if len(c.LastEmbedCost) != c.LastEmbedIters {
		t.Fatalf("cost history %d entries for %d iterations",
			len(c.LastEmbedCost), c.LastEmbedIters)
	}
}

func TestColdStartGetsExtraIterations(t *testing.T) {
	c := New(0.9, 7)
	in := buildInput(t, 16, nil)
	c.Place(in)
	cold := c.LastEmbedIters
	// Second slot: warm start, capped at the normal MaxIters.
	cur := map[int]int{}
	for id := 0; id < 16; id++ {
		cur[id] = 0
	}
	in2 := buildInput(t, 16, cur)
	in2.Slot = 2
	c.Place(in2)
	warm := c.LastEmbedIters
	if warm > c.Embed.MaxIters {
		t.Fatalf("warm-start iterations %d exceed MaxIters %d", warm, c.Embed.MaxIters)
	}
	// Cold start is allowed (and expected, with the data pairs still
	// converging) to use more than the warm cap.
	if cold < warm {
		t.Logf("cold %d < warm %d (converged early; acceptable)", cold, warm)
	}
}

// TestEmbedBudgetScalesMaxIters pins the embedding budgets to the
// configured MaxIters: five times it on the cold start and reoptBoost
// times it on an epoch-boundary slot, with no floor under a small MaxIters.
// At alpha 0.5 the fixture's layout does not converge within either
// budget, so both runs must use more than MaxIters and stop at the cap.
func TestEmbedBudgetScalesMaxIters(t *testing.T) {
	const maxIters = 4
	c := New(0.5, 7)
	c.Embed.MaxIters = maxIters
	c.Place(buildInput(t, 16, nil))
	if cold := c.LastEmbedIters; cold <= maxIters || cold > 5*maxIters {
		t.Fatalf("cold start ran %d iterations, want (%d, %d]", cold, maxIters, 5*maxIters)
	}
	cur := map[int]int{}
	for id := 0; id < 16; id++ {
		cur[id] = id % 3
	}
	in := buildInput(t, 16, cur)
	in.Slot = 2
	c.StartEpoch(1, in.Slot)
	c.Place(in)
	if boundary := c.LastEmbedIters; boundary <= maxIters || boundary > reoptBoost*maxIters {
		t.Fatalf("epoch boundary ran %d iterations, want (%d, %d]", boundary, maxIters, reoptBoost*maxIters)
	}
}

func TestRejectedWishesReported(t *testing.T) {
	c := New(0.9, 7)
	cur := map[int]int{}
	for i := 0; i < 24; i++ {
		cur[i] = 0 // everything piled on DC0
	}
	in := buildInput(t, 24, cur)
	// Force the caps away from DC0 so migrations are wished but the budget
	// blocks most.
	in.Constraint = 8 // one small migration per link at most
	p := c.Place(in)
	if p.Rejected == 0 && len(p.Moves) == 0 {
		t.Fatal("no migration pressure generated at all")
	}
	if len(p.Moves) > 0 {
		var perLink = map[[2]int]float64{}
		for _, m := range p.Moves {
			perLink[[2]int{m.From, m.To}] += m.Seconds
		}
		for k, s := range perLink {
			if s >= 8 {
				t.Fatalf("link %v exceeded the 8 s budget: %v", k, s)
			}
		}
	}
}

func TestFieldForceSemantics(t *testing.T) {
	in := buildInput(t, 4, nil)
	f := NewField(0.5, in.Profiles, in.Volumes, in.Volumes.Mean())
	// Pair (0,1) communicates; (0,2) does not. The communicating pair's
	// force must be lower (more attractive) than the silent pair's.
	f01 := f.Force(0, 1)
	f02 := f.Force(0, 2)
	if f01 >= f02 {
		t.Fatalf("data pair force %v not below silent pair %v", f01, f02)
	}
	// Silent pairs are purely repulsive.
	if f02 <= 0 {
		t.Fatalf("silent pair force %v should be positive (repulsion)", f02)
	}
	// Repulsion is Force without the volume lookup: the same value for a
	// silent pair, and the data pair's force less its attraction.
	if r := f.Repulsion(0, 2); r != f02 {
		t.Fatalf("silent pair: Repulsion %v != Force %v", r, f02)
	}
	if r := f.Repulsion(0, 1); r <= f01 {
		t.Fatalf("data pair: Repulsion %v not above Force %v", r, f01)
	}
}

func TestAttractionPeersSymmetric(t *testing.T) {
	in := buildInput(t, 6, nil)
	f := NewField(0.5, in.Profiles, in.Volumes, in.Volumes.Mean())
	f.Bind(in.ActiveVMs)
	edges := 0
	for i := range in.ActiveVMs {
		js, _, _ := f.AttractionRow(i)
		for _, j := range js {
			back, _, _ := f.AttractionRow(int(j))
			if !slices.Contains(back, int32(i)) {
				t.Fatalf("attraction rows not symmetric: %d <-> %d", i, j)
			}
			edges++
		}
	}
	if edges == 0 {
		t.Fatal("no attraction edges to check")
	}
}

var _ policy.Policy = (*Controller)(nil) // the contract the simulator relies on
