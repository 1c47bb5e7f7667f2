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
	c.CapSmooth = -1
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
	c.CapSmooth = -1
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

func TestDemandHeadroomConfigurable(t *testing.T) {
	a := New(0.9, 7)
	a.CapSmooth = -1
	a.DemandHeadroom = 1.0
	b := New(0.9, 7)
	b.CapSmooth = -1
	b.DemandHeadroom = 2.0
	inA := buildInput(t, 10, nil)
	inB := buildInput(t, 10, nil)
	sum := func(caps []float64) float64 {
		var s float64
		for _, v := range caps {
			s += v
		}
		return s
	}
	ra := sum(a.caps(inA))
	rb := sum(b.caps(inB))
	if math.Abs(rb/ra-2) > 0.01 {
		t.Fatalf("headroom not linear: %v vs %v", ra, rb)
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
	f := NewField(0.5, in.Profiles, in.Volumes, in.Volumes.Mean(), nil)
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
}

func TestAttractionPeersSymmetric(t *testing.T) {
	in := buildInput(t, 6, nil)
	f := NewField(0.5, in.Profiles, in.Volumes, in.Volumes.Mean(), nil)
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
