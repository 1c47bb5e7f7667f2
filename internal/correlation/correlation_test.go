package correlation

import (
	"math"
	"testing"
	"testing/quick"

	"geovmp/internal/rng"
	"geovmp/internal/units"
)

func TestPeakCoincidenceAligned(t *testing.T) {
	a := []float64{0.1, 0.9, 0.1, 0.1}
	b := []float64{0.2, 0.8, 0.1, 0.1}
	// Peaks at the same sample: combined peak = sum of peaks -> 1.
	if got := PeakCoincidence(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("aligned peaks = %v, want 1", got)
	}
}

func TestPeakCoincidenceStaggered(t *testing.T) {
	a := []float64{0.9, 0.1, 0.1, 0.1}
	b := []float64{0.1, 0.1, 0.9, 0.1}
	// Staggered equal peaks: combined peak 1.0 vs sum 1.8.
	want := 1.0 / 1.8
	if got := PeakCoincidence(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("staggered peaks = %v, want %v", got, want)
	}
}

func TestPeakCoincidenceRange(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		mid := len(raw) / 2
		a := make([]float64, mid)
		b := make([]float64, len(raw)-mid)
		for i := range a {
			a[i] = math.Abs(math.Mod(raw[i], 1))
		}
		for i := range b {
			b[i] = math.Abs(math.Mod(raw[mid+i], 1))
		}
		c := PeakCoincidence(a, b)
		return c > 0 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPeakCoincidenceSymmetric(t *testing.T) {
	src := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		a := make([]float64, 12)
		b := make([]float64, 12)
		for i := range a {
			a[i] = src.Float64()
			b[i] = src.Float64()
		}
		if PeakCoincidence(a, b) != PeakCoincidence(b, a) {
			t.Fatal("peak coincidence not symmetric")
		}
	}
}

func TestPeakCoincidenceEdgeCases(t *testing.T) {
	if got := PeakCoincidence(nil, nil); got != 0.5 {
		t.Fatalf("empty profiles = %v, want 0.5", got)
	}
	if got := PeakCoincidence([]float64{0, 0}, []float64{0, 0}); got != 0.5 {
		t.Fatalf("zero profiles = %v, want 0.5", got)
	}
	// Lower bound above 0: one flat tiny profile vs a big staggered one.
	got := PeakCoincidence([]float64{1, 0}, []float64{0, 1})
	if got <= 0 || got > 1 {
		t.Fatalf("out of (0,1]: %v", got)
	}
}

func TestPeakCoincidenceUnequalLengthsUsesPrefix(t *testing.T) {
	a := []float64{0.5, 0.5, 99}
	b := []float64{0.5, 0.5}
	if got := PeakCoincidence(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("prefix comparison = %v, want 1", got)
	}
}

func TestNormalizeData(t *testing.T) {
	ref := 100 * units.Megabyte
	tests := []struct {
		vol  units.DataSize
		want float64
	}{
		{0, 0},
		{50 * units.Megabyte, -0.5},
		{100 * units.Megabyte, -1},
		{500 * units.Megabyte, -1},
	}
	for _, tt := range tests {
		if got := NormalizeData(tt.vol, ref); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("NormalizeData(%v) = %v, want %v", tt.vol, got, tt.want)
		}
	}
	if NormalizeData(5, 0) != 0 {
		t.Fatal("zero ref should yield 0")
	}
}

func TestNormalizeDataRange(t *testing.T) {
	f := func(v float64) bool {
		got := NormalizeData(units.DataSize(math.Abs(v)), units.Megabyte)
		return got <= 0 && got >= -1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProfileSet(t *testing.T) {
	ps := NewProfileSet(4)
	ps.Add(1, []float64{0.1, 0.9, 0.1, 0.1})
	ps.Add(2, []float64{0.2, 0.8, 0.1, 0.1})
	ps.Add(3, []float64{0.8, 0.1, 0.1, 0.2})
	if !ps.Has(1) || ps.Has(99) {
		t.Fatal("Has wrong")
	}
	if ps.Samples() != 4 {
		t.Fatal("samples wrong")
	}
	if math.Abs(ps.Peak(1)-0.9) > 1e-12 {
		t.Fatalf("peak = %v", ps.Peak(1))
	}
	if math.Abs(ps.Mean(1)-0.3) > 1e-12 {
		t.Fatalf("mean = %v", ps.Mean(1))
	}
	if ps.Mean(99) != 0 || ps.Peak(99) != 0 {
		t.Fatal("missing id should be zero")
	}
	// Aligned pair scores higher than staggered pair.
	if ps.CPUCorr(1, 2) <= ps.CPUCorr(1, 3) {
		t.Fatalf("aligned %v not above staggered %v", ps.CPUCorr(1, 2), ps.CPUCorr(1, 3))
	}
	if ps.CPUCorr(1, 99) != 0.5 {
		t.Fatal("missing profile should yield neutral 0.5")
	}
}

func TestDataMatrix(t *testing.T) {
	m := NewDataMatrix()
	m.Add(1, 2, 10*units.Megabyte)
	m.Add(1, 2, 5*units.Megabyte)
	m.Add(2, 1, 3*units.Megabyte)
	m.Add(3, 3, units.Megabyte) // self: ignored
	m.Add(4, 5, 0)              // zero: ignored
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if m.Vol(1, 2) != 15*units.Megabyte {
		t.Fatalf("vol(1,2) = %v", m.Vol(1, 2))
	}
	if m.Vol(2, 1) != 3*units.Megabyte {
		t.Fatalf("vol(2,1) = %v", m.Vol(2, 1))
	}
	if m.Vol(9, 9) != 0 {
		t.Fatal("missing pair should be 0")
	}
	if m.TotalBetween(1, 2) != 18*units.Megabyte {
		t.Fatalf("total = %v", m.TotalBetween(1, 2))
	}
	var visited int
	var sum units.DataSize
	m.Each(func(f, to int, v units.DataSize) {
		visited++
		sum += v
	})
	if visited != 2 || sum != 18*units.Megabyte {
		t.Fatalf("Each visited %d sum %v", visited, sum)
	}
}
