package embed

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"geovmp/internal/par"
	"geovmp/internal/rng"
	"geovmp/internal/simd"
)

// oracleRunSampled is runSampled as it was before the sampled pass ran on
// the stamp-table lookup and the simd kernel, kept as the test oracle: the
// hashed draw, one RepulsionRow call, the self-sample and attraction
// corrections by a scan of the attraction row (slices.Index), and the Go
// force loop.
func oracleRunSampled(px, py []float64, sf SplitField, cfg Config) (int, []float64) {
	n := len(px)
	K := cfg.SampleK
	apairs := buildAttraction(n, sf, cfg.Workers)
	prevD := make([]float64, len(apairs))
	for k, p := range apairs {
		dx := px[p.i] - px[p.j]
		dy := py[p.i] - py[p.j]
		prevD[k] = math.Sqrt(dx*dx + dy*dy)
	}
	sampleKeys := make([]uint64, K)
	for k := range sampleKeys {
		sampleKeys[k] = rng.Key(uint64(k))
	}
	sampleRow := func(i int, draw uint64, kj []int32, f []float64) {
		prefix := rng.Hash(cfg.Seed, uint64(i), draw)
		for k, key := range sampleKeys {
			kj[k] = int32(rng.FoldKey(prefix, key) % uint64(n))
		}
		sf.RepulsionRow(i, kj, f)
		js, on, _ := sf.AttractionRow(i)
		for k, j := range kj {
			if int(j) == i {
				f[k] = 0
			} else if e := slices.Index(js, j); e >= 0 {
				f[k] += on[e]
			}
		}
	}
	var fkj []int32
	var ff []float64
	if cfg.FastMath {
		fkj, ff = make([]int32, n*K), make([]float64, n*K)
		for i := 0; i < n; i++ {
			sampleRow(i, 0, fkj[i*K:(i+1)*K], ff[i*K:(i+1)*K])
		}
	}
	scale := float64(n-1) / float64(K) * repulsionWeight(n)
	rw := repulsionWeight(n)

	fx := make([]float64, n)
	fy := make([]float64, n)
	kj, f := make([]int32, K), make([]float64, K)
	var costs []float64
	peak := 0.0
	iters := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		for i := range fx {
			fx[i], fy[i] = 0, 0
		}
		for k := range apairs {
			p := &apairs[k]
			dx := px[p.i] - px[p.j]
			dy := py[p.i] - py[p.j]
			d := math.Sqrt(dx*dx + dy*dy)
			if d < 1e-9 {
				ang := rng.Noise01(cfg.Seed, uint64(p.i), uint64(p.j), uint64(iter)) * 2 * math.Pi
				dx, dy, d = math.Cos(ang), math.Sin(ang), 1
			}
			ux, uy := dx/d, dy/d
			fx[p.i] += weighted(p.fij, rw) * ux
			fy[p.i] += weighted(p.fij, rw) * uy
			fx[p.j] -= weighted(p.fji, rw) * ux
			fy[p.j] -= weighted(p.fji, rw) * uy
		}
		for i := 0; i < n; i++ {
			if cfg.FastMath {
				kj, f = fkj[i*K:(i+1)*K], ff[i*K:(i+1)*K]
			} else {
				sampleRow(i, uint64(iter), kj, f)
			}
			for k, j := range kj {
				if f[k] <= 0 {
					continue
				}
				dx := px[i] - px[j]
				dy := py[i] - py[j]
				d := math.Sqrt(dx*dx + dy*dy)
				if d < 1e-9 {
					ang := rng.Noise01(cfg.Seed, uint64(i), uint64(j), uint64(iter)) * 2 * math.Pi
					dx, dy, d = math.Cos(ang), math.Sin(ang), 1
				}
				fx[i] += f[k] * scale * dx / d
				fy[i] += f[k] * scale * dy / d
			}
		}
		displace(px, py, fx, fy)

		var cost float64
		for k, p := range apairs {
			dx := px[p.i] - px[p.j]
			dy := py[p.i] - py[p.j]
			d := math.Sqrt(dx*dx + dy*dy)
			cost += (p.fij + p.fji) * (d - prevD[k])
			prevD[k] = d
		}
		costs = append(costs, cost)
		iters = iter + 1
		if cost > peak {
			peak = cost
		}
		if stopNow(iter, cost, peak) {
			break
		}
	}
	return iters, costs
}

// oracleRun is Run in the sampled mode on oracleRunSampled, every point
// starting at init.
func oracleRun(ids []int, init []Point, sf SplitField, cfg Config) Result {
	cfg.applyDefaults()
	px, py := make([]float64, len(ids)), make([]float64, len(ids))
	for i, p := range init {
		px[i], py[i] = p.X, p.Y
	}
	sf.Bind(ids)
	res := Result{Pos: make([]Point, len(ids))}
	res.Iterations, res.Cost = oracleRunSampled(px, py, sf, cfg)
	for i := range res.Pos {
		res.Pos[i] = Point{X: px[i], Y: py[i]}
	}
	return res
}

// sampledField is a concurrency-safe SplitField whose draws meet every
// case the sampled pass treats specially: repulsion terms that are zero,
// negative or (at nanRate) NaN besides the usual positive ones, and random
// symmetric attraction rows of a few partners each, so drawn peers are
// often attraction partners.
type sampledField struct {
	seed    uint64
	nanRate float64
	rows    [][]int32
	on, by  [][]float64
}

func (f *sampledField) Bind(ids []int) {
	n := len(ids)
	f.rows = make([][]int32, n)
	f.on = make([][]float64, n)
	f.by = make([][]float64, n)
	link := func(i, j int) {
		if i == j || slices.Contains(f.rows[i], int32(j)) {
			return
		}
		a, b := -rng.Noise01(f.seed, uint64(i), uint64(j), 1), -rng.Noise01(f.seed, uint64(j), uint64(i), 1)
		f.rows[i], f.on[i], f.by[i] = append(f.rows[i], int32(j)), append(f.on[i], a), append(f.by[i], b)
		f.rows[j], f.on[j], f.by[j] = append(f.rows[j], int32(i)), append(f.on[j], b), append(f.by[j], a)
	}
	for i := range n {
		for e := range int(rng.Noise01(f.seed, uint64(i), 2) * 5) {
			link(i, int(rng.Hash(f.seed, uint64(i), uint64(e), 3)%uint64(n)))
		}
	}
}

func (f *sampledField) RepulsionRow(i int, js []int32, dst []float64) {
	for k, j := range js {
		a, b := uint64(min(i, int(j))), uint64(max(i, int(j)))
		u := rng.Noise01(f.seed, a, b)
		switch {
		case u < f.nanRate:
			dst[k] = math.NaN()
		case u < 0.05:
			dst[k] = 0
		case u < 0.1:
			dst[k] = -u
		default:
			dst[k] = u
		}
	}
}

func (f *sampledField) AttractionRow(i int) ([]int32, []float64, []float64) {
	return f.rows[i], f.on[i], f.by[i]
}

// clusteredInit scatters n points with clusters of coincident ones: every
// seventh point sits on its predecessor and the first twelve share one spot.
func clusteredInit(n int, seed uint64) []Point {
	init := make([]Point, n)
	for i := range init {
		init[i] = InitialPosition(i, 10, seed)
		if i%7 == 6 || i < 12 {
			init[i] = init[max(i-1, 0)]
		}
	}
	return init
}

// sameBitsEmbed reports whether a and b have the same bits, all NaNs
// counting as one (see the simd package's tests for why payloads differ).
func sameBitsEmbed(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestSampledPassMatchesOracle holds the sampled mode — the stamp-table
// partner lookup and the per-point pass on the simd kernel (its Go loop
// under the purego tag) — to the pre-kernel loop: Run's positions and cost
// history must equal the oracle's bit for bit at every fleet size, worker
// count and mode, over draws with self-samples, repeated peers, attraction
// partners, non-repelling and NaN forces and coincident points.
func TestSampledPassMatchesOracle(t *testing.T) {
	type tc struct {
		n, iters int
		nanRate  float64
	}
	cases := []tc{{513, 8, 0}, {2000, 6, 0}, {12288, 4, 0}, {513, 1, 1e-4}, {2000, 2, 1e-4}}
	for _, c := range cases {
		ids := make([]int, c.n)
		for i := range ids {
			ids[i] = i
		}
		init := clusteredInit(c.n, 7)
		for _, fast := range []bool{false, true} {
			want := oracleRun(ids, init, &sampledField{seed: 5, nanRate: c.nanRate}, Config{Seed: 11, MaxIters: c.iters, FastMath: fast})
			for _, w := range []*par.Budget{nil, par.NewBudget(2), par.NewBudget(8)} {
				t.Run(fmt.Sprintf("n%d/nan%v/fast%v/workers%d", c.n, c.nanRate, fast, w.Extra()), func(t *testing.T) {
					cfg := Config{Seed: 11, MaxIters: c.iters, FastMath: fast, Workers: w}
					got := Run(ids, init, nil, &sampledField{seed: 5, nanRate: c.nanRate}, cfg)
					if got.Iterations != want.Iterations || len(got.Cost) != len(want.Cost) {
						t.Fatalf("%d iterations, %d costs; oracle %d, %d", got.Iterations, len(got.Cost), want.Iterations, len(want.Cost))
					}
					for k := range want.Cost {
						if !sameBitsEmbed(got.Cost[k], want.Cost[k]) {
							t.Fatalf("cost[%d] = %v, oracle %v", k, got.Cost[k], want.Cost[k])
						}
					}
					finite := 0
					for i, p := range want.Pos {
						if !sameBitsEmbed(got.Pos[i].X, p.X) || !sameBitsEmbed(got.Pos[i].Y, p.Y) {
							t.Fatalf("point %d at %v, oracle %v", i, got.Pos[i], p)
						}
						if !math.IsNaN(p.X) {
							finite++
						}
					}
					if finite < c.n/5 {
						t.Fatalf("only %d of %d points kept a position: the case checks too little", finite, c.n)
					}
					if c.nanRate > 0 && finite == c.n {
						t.Fatal("no NaN force reached a point: the case checks too little")
					}
				})
			}
		}
	}
}

// BenchmarkSampledPass times the sampled mode's force pass at paper scale
// (12,288 points, 96 frozen peers each, so no draw is timed) on the Go loop
// and, where the CPU has it, on the AVX2 kernel, and reports the time per
// drawn pair. Build with -tags purego to time the fallback build.
func BenchmarkSampledPass(b *testing.B) {
	const n, k = 12288, 96
	cfg := Config{Seed: 3, SampleK: k}
	cfg.applyDefaults()
	sf := &sampledField{seed: 5}
	sf.Bind(make([]int, n))
	s := newSampler(n, sf, cfg)
	s.frozen = new(peerRows)
	s.freeze(nil)
	px, py := make([]float64, n), make([]float64, n)
	for i := range px {
		p := InitialPosition(i, 50, 3)
		px[i], py[i] = p.X, p.Y
	}
	fx, fy := make([]float64, n), make([]float64, n)
	run := func(name string, sampled func(*simd.Draw, int) int) {
		b.Run(name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				s.pass(px, py, fx, fy, it, nil, sampled)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n*k), "ns/pair")
		})
	}
	run("go", (*simd.Draw).SampledGo)
	if simd.AVX2 {
		run("avx2", (*simd.Draw).Sampled)
	}
}
