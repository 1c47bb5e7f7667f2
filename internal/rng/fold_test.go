package rng

import (
	"math"
	"testing"
)

// refHash and refSmoothNoise are the self-contained key-slice forms of Hash
// and SmoothNoise, written out without the prefix-fold helpers the package
// builds them from.
func refHash(keys ...uint64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, k := range keys {
		h = mix64(h ^ mix64(k+0x9e3779b97f4a7c15))
	}
	return h
}

func refSmoothNoise(x float64, keys ...uint64) float64 {
	x0 := math.Floor(x)
	t := x - x0
	a := float64(refHash(append(keys, uint64(int64(x0)))...)>>11) / (1 << 53)
	b := float64(refHash(append(keys, uint64(int64(x0)+1))...)>>11) / (1 << 53)
	w := (1 - math.Cos(math.Pi*t)) / 2
	return a*(1-w) + b*w
}

// checkFoldForms asserts that Noise01 and SmoothNoise equal both their
// reference forms and their prefix-fold decompositions, bit for bit.
func checkFoldForms(t *testing.T, seed, tag, step uint64, x float64) {
	t.Helper()
	prefix := Hash(seed, tag)
	if prefix != refHash(seed, tag) {
		t.Fatalf("Hash(%d, %d) differs from the reference", seed, tag)
	}
	n := Noise01(seed, tag, step)
	if ref := float64(refHash(seed, tag, step)>>11) / (1 << 53); math.Float64bits(n) != math.Float64bits(ref) {
		t.Fatalf("Noise01(%d, %d, %d) = %v, reference %v", seed, tag, step, n, ref)
	}
	for _, fold := range []float64{Unit(Fold(prefix, step)), Unit(FoldKey(prefix, Key(step)))} {
		if math.Float64bits(fold) != math.Float64bits(n) {
			t.Fatalf("prefix fold of (%d, %d, %d) = %v, Noise01 %v", seed, tag, step, fold, n)
		}
	}
	s := SmoothNoise(x, seed, tag)
	if ref := refSmoothNoise(x, seed, tag); math.Float64bits(s) != math.Float64bits(ref) {
		t.Fatalf("SmoothNoise(%v, %d, %d) = %v, reference %v", x, seed, tag, s, ref)
	}
	cell, ease := Lattice(x)
	a, b := LatticeEnds(prefix, cell)
	if fold := Blend(a, b, ease); math.Float64bits(fold) != math.Float64bits(s) {
		t.Fatalf("prefix fold of SmoothNoise(%v, %d, %d) = %v, want %v", x, seed, tag, fold, s)
	}
}

func TestPrefixFoldMatchesNoise(t *testing.T) {
	src := New(11)
	for i := 0; i < 2000; i++ {
		x := src.Range(-2000, 2000)
		if i%4 == 0 {
			x = math.Floor(x) // lattice points exactly
		}
		checkFoldForms(t, src.Uint64(), src.Uint64()%0x10000, src.Uint64(), x)
	}
}

func FuzzPrefixFold(f *testing.F) {
	f.Add(uint64(1), uint64(0x510), uint64(0), 0.0)
	f.Add(uint64(42), uint64(0xFA57), uint64(120960), 1007.5)
	f.Add(uint64(7), uint64(0xB057), uint64(1<<63), -3.25)
	f.Fuzz(func(t *testing.T, seed, tag, step uint64, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1<<52 {
			t.Skip()
		}
		checkFoldForms(t, seed, tag, step, x)
	})
}
