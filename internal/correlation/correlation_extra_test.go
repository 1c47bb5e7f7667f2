package correlation

import (
	"math"
	"slices"
	"testing"

	"geovmp/internal/units"
)

func TestDataMatrixMean(t *testing.T) {
	m := NewDataMatrix()
	if m.Mean() != 0 {
		t.Fatal("empty mean not 0")
	}
	m.Add(1, 2, 10*units.Megabyte)
	m.Add(2, 3, 30*units.Megabyte)
	if got := m.Mean(); math.Abs(float64(got-20*units.Megabyte)) > 1 {
		t.Fatalf("mean = %v, want 20 MB", got)
	}
	// Accumulation onto an existing pair changes the mean, not the count.
	m.Add(1, 2, 20*units.Megabyte)
	if got := m.Mean(); math.Abs(float64(got-30*units.Megabyte)) > 1 {
		t.Fatalf("mean after accumulate = %v, want 30 MB", got)
	}
}

func TestPeakCoincidenceHalfForPerfectStagger(t *testing.T) {
	// Identical peaks perfectly staggered approach 1/2 as the baseline
	// falls: with zero baseline exactly 0.5.
	a := []float64{1, 0}
	b := []float64{0, 1}
	if got := PeakCoincidence(a, b); got != 0.5 {
		t.Fatalf("perfect stagger = %v, want 0.5", got)
	}
}

func TestPeakCoincidenceScaleInvariant(t *testing.T) {
	a := []float64{0.1, 0.8, 0.2}
	b := []float64{0.3, 0.6, 0.1}
	c1 := PeakCoincidence(a, b)
	a2 := make([]float64, len(a))
	b2 := make([]float64, len(b))
	for i := range a {
		a2[i] = a[i] * 3
		b2[i] = b[i] * 3
	}
	c2 := PeakCoincidence(a2, b2)
	if math.Abs(c1-c2) > 1e-12 {
		t.Fatalf("not scale invariant: %v vs %v", c1, c2)
	}
}

func TestProfileSetOwnership(t *testing.T) {
	ps := NewProfileSet(3)
	prof := []float64{0.5, 0.6, 0.7}
	ps.Add(1, prof)
	// Rows are copied into the set's contiguous arena (the documented
	// cache-locality contract): the caller keeps its slice and later
	// mutations do not leak into the set.
	got := ps.Profile(1)
	if &got[0] == &prof[0] {
		t.Fatal("profile should be copied into the arena")
	}
	prof[0] = 99
	if ps.Profile(1)[0] != 0.5 {
		t.Fatal("caller mutation leaked into the set")
	}
	// Rows of any other length are refused: Add panics on a short and on
	// a long row and leaves the set as it was.
	for _, n := range []int{2, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add of a %d-sample row to a 3-sample set did not panic", n)
				}
			}()
			ps.Add(2, make([]float64, n))
		}()
		if ps.Has(2) || ps.Len() != 1 {
			t.Fatalf("refused %d-sample row was registered", n)
		}
	}
}

// TestProfileSetCloneIsIndependent holds a clone to its source on every
// query, and each to its own rows after the other is amended.
func TestProfileSetCloneIsIndependent(t *testing.T) {
	ps := NewProfileSet(3)
	for id := 0; id < 6; id++ {
		ps.Add(id, []float64{float64(id), 0.5, float64(6 - id)})
	}
	ps.Remove(2) // leaves a free row the clone must keep too
	c := ps.Clone()
	same := func(what string, a, b *ProfileSet) {
		t.Helper()
		if a.Len() != b.Len() {
			t.Fatalf("%s: Len %d, want %d", what, a.Len(), b.Len())
		}
		for i := 0; i < 8; i++ {
			if a.Has(i) != b.Has(i) || a.Peak(i) != b.Peak(i) || !slices.Equal(a.Profile(i), b.Profile(i)) {
				t.Fatalf("%s: id %d differs", what, i)
			}
			for j := 0; j < 8; j++ {
				if a.CPUCorr(i, j) != b.CPUCorr(i, j) {
					t.Fatalf("%s: CPUCorr(%d, %d) differs", what, i, j)
				}
			}
		}
	}
	same("clone", c, ps)
	ps.Add(7, []float64{1, 1, 1})
	ps.Add(1, []float64{9, 9, 9})
	ps.Remove(4)
	if c.Has(7) || c.Profile(1)[0] != 1 || !c.Has(4) || c.Has(2) {
		t.Fatal("amending the source changed the clone")
	}
	c.Add(2, []float64{3, 3, 3})
	if ps.Has(2) {
		t.Fatal("amending the clone changed the source")
	}
	ps.Add(2, []float64{3, 3, 3})
	ps.Add(1, []float64{1, 0.5, 5})
	ps.Add(4, []float64{4, 0.5, 2})
	ps.Remove(7)
	same("after matching amendments", c, ps)
}
