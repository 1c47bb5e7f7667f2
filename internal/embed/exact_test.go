package embed

import (
	"math"
	"testing"

	"geovmp/internal/simd"
)

// exactFixture builds the dense caches of an n-point splitHashField and a
// scattered layout in which every fifth point sits on top of its
// predecessor, so passes meet coincident pairs in every lane position.
func exactFixture(n int) (*exactScratch, []float64, []float64) {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	f := &splitHashField{seed: 41, n: n}
	f.Bind(ids)
	scr := new(exactScratch)
	scr.ensure(n * n)
	scr.build(n, f, repulsionWeight(n), nil)
	px := make([]float64, n)
	py := make([]float64, n)
	for i := range px {
		p := InitialPosition(i, 10, 5)
		px[i], py[i] = p.X, p.Y
		if i%5 == 4 {
			px[i], py[i] = px[i-1], py[i-1]
		}
	}
	return scr, px, py
}

// TestExactPassMatchesGo runs the exact embedding's iterations — pass, then
// displacement — on the row kernel and on its Go oracle side by side, at
// fleet sizes that leave every row tail length, and requires each pass's
// cost, forces and distances and the resulting layout to agree bit for bit.
func TestExactPassMatchesGo(t *testing.T) {
	cfg := Config{Seed: 9}
	cfg.applyDefaults()
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 13, 37, 96} {
		a, apx, apy := exactFixture(n)
		g, gpx, gpy := exactFixture(n)
		afx, afy := make([]float64, n), make([]float64, n)
		gfx, gfy := make([]float64, n), make([]float64, n)
		same := func(what string, iter int, x, y []float64) {
			t.Helper()
			for k := range x {
				if math.Float64bits(x[k]) != math.Float64bits(y[k]) {
					t.Fatalf("n=%d iter %d: %s[%d] = %v, Go oracle %v", n, iter, what, k, x[k], y[k])
				}
			}
		}
		for iter := 0; iter < 6; iter++ {
			clear(afx)
			clear(afy)
			clear(gfx)
			clear(gfy)
			ac := a.pass(apx, apy, afx, afy, cfg.Seed, iter, (*simd.Row).Exact)
			gc := g.pass(gpx, gpy, gfx, gfy, cfg.Seed, iter, (*simd.Row).ExactGo)
			if iter > 0 {
				same("cost", iter, []float64{ac}, []float64{gc})
			}
			same("fx", iter, afx, gfx)
			same("fy", iter, afy, gfy)
			same("prevD", iter, a.prevD, g.prevD)
			displace(apx, apy, afx, afy)
			displace(gpx, gpy, gfx, gfy)
		}
		same("px", 6, apx, gpx)
		same("py", 6, apy, gpy)
	}
}

// exactBenchN is the mean fleet size of dynamic-faulty's exact embeddings.
const exactBenchN = 463

// BenchmarkExactPass times one exact pair pass at exactBenchN points on the
// Go loop and, where the CPU has it, on the AVX2 row kernel, and reports the
// time per pair. Build with -tags purego to time the fallback build.
func BenchmarkExactPass(b *testing.B) {
	run := func(name string, exact func(*simd.Row, int) int) {
		b.Run(name, func(b *testing.B) {
			scr, px, py := exactFixture(exactBenchN)
			fx := make([]float64, exactBenchN)
			fy := make([]float64, exactBenchN)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				scr.pass(px, py, fx, fy, 3, it, exact)
			}
			pairs := float64(b.N) * exactBenchN * (exactBenchN - 1) / 2
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
		})
	}
	run("go", (*simd.Row).ExactGo)
	if simd.AVX2 {
		run("avx2", (*simd.Row).Exact)
	}
}
