package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if s.Std() != 2 {
		t.Fatalf("std = %v, want 2", s.Std())
	}
	if got, want := s.String(), "n=8 mean=5 std=2 min=2 max=9"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Fatal("empty summary not zero")
	}
}

func TestSummaryMatchesNaive(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				clean = append(clean, v)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var s Summary
		var sum float64
		for _, v := range clean {
			s.Add(v)
			sum += v
		}
		mean := sum / float64(len(clean))
		var sq float64
		for _, v := range clean {
			sq += (v - mean) * (v - mean)
		}
		naiveVar := sq / float64(len(clean))
		return math.Abs(s.Mean()-mean) < 1e-6 && math.Abs(s.Var()-naiveVar) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramPDFSumsToOne(t *testing.T) {
	h := NewHistogram(0, 1, 20)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i%100) / 100)
	}
	_, probs := h.PDF()
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PDF sums to %v", sum)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.Add(-5)
	h.Add(99)
	_, probs := h.PDF()
	if probs[0] != 0.5 || probs[9] != 0.5 {
		t.Fatalf("edge bins = %v, %v", probs[0], probs[9])
	}
}

func TestHistogramEmpty(t *testing.T) {
	_, probs := NewHistogram(0, 1, 4).PDF()
	for _, p := range probs {
		if p != 0 {
			t.Fatalf("empty histogram PDF = %v, want zeros", probs)
		}
	}
}

func TestNewHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on hi<=lo")
		}
	}()
	NewHistogram(1, 1, 4)
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "energy"
	for i := 0; i < 6; i++ {
		s.Append(float64(i), float64(i*2))
	}
	if s.Len() != 6 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.MaxY() != 10 {
		t.Fatalf("max = %v", s.MaxY())
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 5; i++ {
		s.Append(float64(i), float64(i))
	}
	d := s.Downsample(2)
	if d.Len() != 3 {
		t.Fatalf("downsampled len = %d, want 3", d.Len())
	}
	if d.Y[0] != 0.5 || d.Y[1] != 2.5 || d.Y[2] != 4 {
		t.Fatalf("downsampled Y = %v", d.Y)
	}
	c := s.Downsample(1)
	if c.Len() != s.Len() {
		t.Fatal("k=1 should copy")
	}
}

func TestNormalizeByWorst(t *testing.T) {
	in := map[string]float64{"a": 50, "b": 100, "c": 25}
	out := NormalizeByWorst(in)
	if out["b"] != 1 || out["a"] != 0.5 || out["c"] != 0.25 {
		t.Fatalf("normalized = %v", out)
	}
}

func TestNormalizeByWorstAllZero(t *testing.T) {
	out := NormalizeByWorst(map[string]float64{"a": 0, "b": 0})
	if out["a"] != 0 || out["b"] != 0 {
		t.Fatalf("zero input normalized = %v", out)
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(45, 100); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("improvement = %v, want 0.55", got)
	}
	if got := Improvement(100, 100); got != 0 {
		t.Fatalf("no-op improvement = %v", got)
	}
	if got := Improvement(110, 100); math.Abs(got+0.1) > 1e-12 {
		t.Fatalf("regression = %v, want -0.1", got)
	}
	if Improvement(5, 0) != 0 {
		t.Fatal("division by zero not guarded")
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		vals := map[string]float64{
			"a": math.Abs(math.Mod(a, 1000)),
			"b": math.Abs(math.Mod(b, 1000)),
			"c": math.Abs(math.Mod(c, 1000)),
		}
		out := NormalizeByWorst(vals)
		for _, v := range out {
			if v < 0 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
