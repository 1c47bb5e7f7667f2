package policy

import (
	"testing"

	"geovmp/internal/correlation"
	"geovmp/internal/units"
)

func TestApplyWishesOrderEncodesPriority(t *testing.T) {
	// Two VMs want the same move but the per-link budget fits only one; the
	// one earlier in the order wins.
	cur := map[int]int{10: 0, 20: 0}
	in := buildInput(t, inputOpts{nVMs: 0, current: cur})
	in.ActiveVMs = []int{10, 20}
	in.Image[10] = 8 * units.Gigabyte
	in.Image[20] = 8 * units.Gigabyte
	// One 8 GB move is ~13.5 s on this link; two exceed a 20 s budget.
	in.Constraint = 20
	wish := map[int]int{10: 1, 20: 1}
	p := applyWishes(in, []int{20, 10}, wish)
	if p.DCOf[20] != 1 {
		t.Fatal("first-priority VM did not move")
	}
	if p.DCOf[10] != 0 {
		t.Fatal("budget-exceeded VM moved anyway")
	}
	if p.Rejected != 1 || len(p.Moves) != 1 {
		t.Fatalf("rejected=%d moves=%d", p.Rejected, len(p.Moves))
	}
}

func TestApplyWishesSeparateLinkBudgets(t *testing.T) {
	// Moves on different link pairs draw from different budgets.
	cur := map[int]int{1: 0, 2: 1}
	in := buildInput(t, inputOpts{nVMs: 0, current: cur})
	in.ActiveVMs = []int{1, 2}
	in.Image[1] = 8 * units.Gigabyte
	in.Image[2] = 8 * units.Gigabyte
	in.Constraint = 20
	wish := map[int]int{1: 2, 2: 2}
	p := applyWishes(in, []int{1, 2}, wish)
	if len(p.Moves) != 2 {
		t.Fatalf("moves = %d, want 2 (links 0->2 and 1->2 are independent)", len(p.Moves))
	}
}

func TestPeakDemandFallback(t *testing.T) {
	in := buildInput(t, inputOpts{nVMs: 1})
	// Unknown VM: conservative prior.
	if got := peakDemand(in, 999); got != 0.5 {
		t.Fatalf("peak prior = %v, want 0.5", got)
	}
	if got := cpuDemand(in, 999); got != 0.3 {
		t.Fatalf("mean prior = %v, want 0.3", got)
	}
}

func TestEnerAwareDeterministicUnderMapIteration(t *testing.T) {
	// Current placements arrive as a map; iteration order must not leak
	// into results.
	for trial := 0; trial < 5; trial++ {
		cur := map[int]int{}
		for i := 0; i < 12; i++ {
			cur[i] = i % 3
		}
		in := buildInput(t, inputOpts{nVMs: 16, current: cur})
		p := EnerAware{}.Place(in)
		in2 := buildInput(t, inputOpts{nVMs: 16, current: cur})
		p2 := EnerAware{}.Place(in2)
		for id := range p.DCOf {
			if p2.DCOf[id] != p.DCOf[id] {
				t.Fatal("map iteration order leaked into placement")
			}
		}
	}
}

func TestNetAwareHandlesMissingVolumeMatrix(t *testing.T) {
	in := buildInput(t, inputOpts{nVMs: 5})
	in.Volumes = correlation.NewDataMatrix() // empty
	p := NetAware{}.Place(in)
	assertCovers(t, p, in)
}

func TestPriAwareFillFactorConfigurable(t *testing.T) {
	in := buildInput(t, inputOpts{nVMs: 8, peak: func(int) float64 { return 8 }})
	// The shipped fill factor 0.9: the cheapest DC (4 servers x 8 cores x
	// 0.9 = 28.8 cores) takes exactly three 8-core VMs.
	p := PriAware{}.Place(in)
	count := 0
	for _, d := range p.DCOf {
		if d == 2 {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("cheapest DC holds %d, want 3 under fill %v", count, priFillFactor)
	}
}
