package trace

import (
	"math"
	"testing"

	"geovmp/internal/timeutil"
)

func TestPlannedVolumesCoverNewVMs(t *testing.T) {
	// A VM arriving at slot `a` has no realized traffic at slot a-1, but
	// PlannedVolumes(a-1, a) must still list its service pairs.
	w := New(Config{Seed: 61, Horizon: timeutil.Days(2), InitialVMs: 150, ArrivalPerSlot: 8})
	diffs, _ := Diffs(w, w.Slots())
	for sl := timeutil.Slot(2); sl < 30; sl++ {
		arrivals := diffs[sl]
		if len(arrivals) == 0 {
			continue
		}
		covered := map[int]bool{}
		for _, e := range w.PlannedVolumes(sl-1, sl) {
			covered[e.From] = true
			covered[e.To] = true
		}
		found := false
		for _, id := range arrivals {
			if covered[id] {
				found = true
			}
		}
		// Some arrivals open brand-new single-member services (no pairs);
		// over all slots at least one connected arrival must be covered.
		if found {
			return
		}
	}
	t.Fatal("no newly arrived VM ever appeared in planned volumes")
}

func TestPlannedVolumesExcludeDepartedVMs(t *testing.T) {
	w := New(Config{Seed: 67, Horizon: timeutil.Days(2), InitialVMs: 120, MeanLifeSlots: 6})
	for _, sl := range []timeutil.Slot{8, 16, 24} {
		for _, e := range w.PlannedVolumes(sl-1, sl) {
			if !w.VM(e.From).ActiveAt(sl) || !w.VM(e.To).ActiveAt(sl) {
				t.Fatalf("slot %d: planned pair (%d,%d) has a dead endpoint", sl, e.From, e.To)
			}
		}
	}
}

func TestPlannedMatchesRealizedWhenObsEqualsAct(t *testing.T) {
	w := New(Config{Seed: 71, Horizon: timeutil.Days(1), InitialVMs: 80})
	a := w.Volumes(5)
	b := w.PlannedVolumes(5, 5)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestVolumesPricedAtObservedSlot(t *testing.T) {
	// PlannedVolumes(obs, act) uses obs's activity: two different obs slots
	// should produce different totals for the same act.
	w := New(Config{Seed: 73, Horizon: timeutil.Days(1), InitialVMs: 100, MeanLifeSlots: 10000})
	tot := func(obs timeutil.Slot) float64 {
		var s float64
		for _, e := range w.PlannedVolumes(obs, 12) {
			s += float64(e.Vol)
		}
		return s
	}
	if tot(2) == tot(14) {
		t.Fatal("planned volumes insensitive to observed slot")
	}
}

func TestImageAccessorMatchesVM(t *testing.T) {
	w := New(Config{Seed: 79, Horizon: timeutil.Hours(2), InitialVMs: 30})
	for id := 0; id < w.NumVMs(); id++ {
		if w.Image(id) != w.VM(id).Image {
			t.Fatalf("Image(%d) mismatch", id)
		}
	}
}

func TestSlotsAccessor(t *testing.T) {
	w := New(Config{Seed: 83, Horizon: timeutil.Days(3), InitialVMs: 10})
	if w.Slots() != 72 {
		t.Fatalf("Slots() = %d, want 72", w.Slots())
	}
}

func TestBurstyClassActuallyBursts(t *testing.T) {
	// MapReduce VMs must show bimodal behavior: their high samples exceed
	// their median noticeably more often than HPC's.
	w := New(Config{Seed: 89, Horizon: timeutil.Days(1), InitialVMs: 400})
	spread := func(class Class) float64 {
		var lo, hi, n float64
		for id := 0; id < w.NumVMs() && n < 2000; id++ {
			if w.VM(id).Class != class {
				continue
			}
			for st := timeutil.Step(0); st < 720*6; st += 97 {
				u := w.Util(id, st)
				if u > 0.5 {
					hi++
				} else {
					lo++
				}
				n++
			}
		}
		if lo == 0 {
			return math.Inf(1)
		}
		return hi / (hi + lo)
	}
	mr := spread(ClassMapReduce)
	if mr <= 0.02 {
		t.Fatalf("mapreduce high-load fraction %v implausibly low", mr)
	}
}

func TestServiceGraphDegreeBounded(t *testing.T) {
	w := New(Config{Seed: 97, Horizon: timeutil.Days(1), InitialVMs: 300, MaxPairsPerVM: 3})
	deg := map[int]int{}
	for s := 0; s < w.NumServices(); s++ {
		for _, p := range w.services[s].pairs {
			// Outgoing edges created at join time: each join adds at most
			// MaxPairsPerVM outgoing pairs for the new VM.
			deg[p.from]++
		}
	}
	// A VM gets up to 3 outgoing pairs at join, plus one reverse pair for
	// every later member that picks it (unbounded in principle but small in
	// expectation). Check the join-time bound: no VM has more outgoing
	// pairs than 3 + number of later joiners that selected it; a loose
	// sanity cap of 40 catches wiring bugs.
	for id, d := range deg {
		if d > 40 {
			t.Fatalf("vm %d outgoing degree %d implausible", id, d)
		}
	}
}
