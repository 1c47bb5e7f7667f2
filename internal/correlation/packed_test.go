package correlation

import (
	"fmt"
	"math"
	"testing"

	"geovmp/internal/rng"
	"geovmp/internal/simd"
)

// packedTestRow draws a profile with the shapes the packed kernel must
// reproduce exactly: exact ties (0 and 0.5 recur across rows) and ordinary
// utilizations, plus — in dirty rows — NaN, negative and -0 samples.
func packedTestRow(src *rng.Source, n int, dirty bool) []float64 {
	p := make([]float64, n)
	for t := range p {
		k := src.Intn(8)
		if !dirty && k >= 5 {
			k = 4
		}
		switch k {
		case 0:
			p[t] = 0
		case 1:
			p[t] = 0.5
		case 5:
			p[t] = math.NaN()
		case 6:
			p[t] = -src.Float64()
		case 7:
			p[t] = math.Copysign(0, -1)
		default:
			p[t] = src.Float64()
		}
	}
	return p
}

// TestPackedKernelMatchesPeakCoincidence is the packed kernel's property
// test: for every pair of packed points — ids packed in shuffled order,
// including absent ids, all-zero rows, equal-peak ties, rows holding NaN,
// negative or -0 samples, rows of 65535 and 65536 ticks and rows whose
// tick peaks sum to 511 and 512, at sample counts around the kernel's
// four-way unroll and records of 8 to 13 cache lines — Packed.CPUCorrInto,
// on its kernel scan and on simd's Go oracle, must equal both
// PeakCoincidence and CPUCorr bit for bit over an exact table, and the
// quantized oracle bit for bit and PeakCoincidence within FastEps over a
// fast one. Each layout is packed into a fresh table on one trial and into
// one that last held the other layout on the next.
func TestPackedKernelMatchesPeakCoincidence(t *testing.T) {
	src := rng.New(3).Derive("packed-kernel")
	for _, samples := range []int{1, 2, 3, 4, 5, 12, 57, 64, 96} {
		for trial := 0; trial < 12; trial++ {
			const n = 40
			ps := NewProfileSet(samples)
			rows := make([][]float64, n)
			for id := 0; id < n; id++ {
				var p []float64
				switch {
				case id%9 == 8:
					continue // absent: never added
				case id < 2:
					p = make([]float64, samples) // all-zero rows
				case id >= 2 && id <= 4:
					// Tick peaks of 256, 256 and 255 off the tick grid,
					// on different samples: pairs of them sum to 512 (on
					// qMinDen) and 511 (under it).
					p = make([]float64, samples)
					p[(id+1)%samples] = 100.3 / qScale
					p[id%samples] = [...]float64{255.7, 255.8, 254.7}[id-2] / qScale
				case id == 6 || id == 7:
					// 65535 ticks, the largest that quantizes, and 65536,
					// the first that does not.
					p = packedTestRow(src, samples, false)
					p[id%samples] = float64(65529+id) / qScale
				case id%7 == 3:
					// Equal-peak ties on VM-dependent samples.
					p = make([]float64, samples)
					p[id%samples] = 0.75
					p[(id+1)%samples] = 0.75
				case id%13 == 12:
					// A peak near the float range: two of them overflow
					// the peak sum to +Inf, the one case the 1e-9 clamp
					// catches on non-negative rows.
					p = make([]float64, samples)
					p[id%samples] = math.MaxFloat64 / 1.5
				case id%5 == 4:
					p = packedTestRow(src, samples, id%2 == 0)
					p[id%samples] = -src.Float64() // a slow row in both layouts
				case id%11 == 6:
					p = packedTestRow(src, samples, false)
					p[id%samples] = math.NaN()
				default:
					p = packedTestRow(src, samples, id%3 == 0)
				}
				rows[id] = p
				ps.Add(id, p)
			}
			// Pack every id plus two that were never seen, in shuffled
			// order.
			ids := append(src.Perm(n), n+3, -1)
			o := newFastOracle(ps)
			js := make([]int32, len(ids))
			for k, j := range src.Perm(len(ids)) {
				js[k] = int32(j)
			}
			dst := make([]float64, len(js))
			gdst := make([]float64, len(js))
			row := func(id int) []float64 {
				if id < 0 || id >= n {
					return nil
				}
				return rows[id]
			}
			var pk Packed
			for _, fast := range []bool{trial%2 == 0, trial%2 == 1} {
				ps.Pack(&pk, ids, fast)
				for i, a := range ids {
					pk.CPUCorrInto(dst, i, js)
					pk.cpuCorrInto(gdst, i, js, simd.PeakCorrGo)
					for k, j := range js {
						b := ids[j]
						want := PeakCoincidence(row(a), row(b))
						if fast {
							checkFast(t, o, a, b, dst[k], want)
							checkFast(t, o, a, b, gdst[k], want)
							continue
						}
						if math.Float64bits(dst[k]) != math.Float64bits(want) {
							t.Fatalf("S=%d trial %d: packed(%d, %d) = %v, want PeakCoincidence %v",
								samples, trial, a, b, dst[k], want)
						}
						if math.Float64bits(gdst[k]) != math.Float64bits(want) {
							t.Fatalf("S=%d trial %d: packed Go scan (%d, %d) = %v, want PeakCoincidence %v",
								samples, trial, a, b, gdst[k], want)
						}
						if got := ps.CPUCorr(a, b); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("S=%d trial %d: CPUCorr(%d, %d) = %v, want PeakCoincidence %v",
								samples, trial, a, b, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPackedRepack checks that packing a second order into the same table
// answers for the new order only.
func TestPackedRepack(t *testing.T) {
	src := rng.New(5).Derive("repack")
	const samples, n = 12, 64
	ps := NewProfileSet(samples)
	rows := make([][]float64, n)
	for id := range rows {
		rows[id] = randProfile(src, samples)
		ps.Add(id, rows[id])
	}
	var pk Packed
	ps.Pack(&pk, src.Perm(n), false)
	ids := src.Perm(n)[:n/2]
	ps.Pack(&pk, ids, false)
	js := make([]int32, len(ids))
	for k := range js {
		js[k] = int32(k)
	}
	dst := make([]float64, len(js))
	for i, a := range ids {
		pk.CPUCorrInto(dst, i, js)
		for k, b := range ids {
			if want := PeakCoincidence(rows[a], rows[b]); dst[k] != want {
				t.Fatalf("repacked (%d, %d) = %v, want %v", a, b, dst[k], want)
			}
		}
	}
}

// BenchmarkPackedCPUCorrInto measures the exact and the fast packed table
// against the per-pair CPUCorr at the embedding's scale: ~12k rows, at the
// default 12 samples per row and at larger sample counts, where each
// partner record spans more cache lines. Rows are a per-VM load level plus
// 10% jitter, like a slot's downsampled utilization. Both tables run on
// both scan paths — simd's Go oracle and, where the CPU has it, the AVX2
// kernel — over partners in random order, as the sampled embedding draws
// them; the exact table is also timed over sequential partners, as the
// exact embedding's dense build reads them.
func BenchmarkPackedCPUCorrInto(b *testing.B) {
	const n = 12288
	for _, samples := range []int{12, 48, 96} {
		ps := NewProfileSet(samples)
		p := make([]float64, samples)
		for id := 0; id < n; id++ {
			level := rng.Noise01(5, uint64(id))
			for t := range p {
				p[t] = level + 0.1*rng.Noise01(7, uint64(id), uint64(t))
			}
			ps.Add(id, p)
		}
		src := rng.New(11)
		ids := src.Perm(n)
		perm := src.Perm(n)
		js := make([]int32, n)
		seq := make([]int32, n)
		jids := make([]int, n)
		for k, j := range perm {
			js[k] = int32(j)
			seq[k] = int32(k)
			jids[k] = ids[j]
		}
		dst := make([]float64, n)
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds()/1e6, "Mpairs/s")
		}
		b.Run(fmt.Sprintf("S%d/cpucorr", samples), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				a := ids[it%n]
				for k, j := range jids {
					dst[k] = ps.CPUCorr(a, j)
				}
			}
			report(b)
		})
		var pk Packed
		ps.Pack(&pk, ids, false)
		exact := func(path string, scan func(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int) {
			for _, order := range []struct {
				name string
				js   []int32
			}{{"seq", seq}, {"rand", js}} {
				b.Run(fmt.Sprintf("S%d/exact/%s/%s", samples, path, order.name), func(b *testing.B) {
					for it := 0; it < b.N; it++ {
						pk.cpuCorrInto(dst, it%n, order.js, scan)
					}
					report(b)
				})
			}
		}
		exact("go", simd.PeakCorrGo)
		if simd.AVX2 {
			exact("avx2", simd.PeakCorr)
		}
		var fast Packed
		ps.Pack(&fast, ids, true)
		fastArm := func(path string, scan func(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int) {
			b.Run(fmt.Sprintf("S%d/fast/%s/rand", samples, path), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					fast.cpuCorrInto(dst, it%n, js, scan)
				}
				report(b)
			})
		}
		fastArm("go", simd.PeakCorrGo)
		if simd.AVX2 {
			fastArm("avx2", simd.PeakCorr)
		}
	}
}
