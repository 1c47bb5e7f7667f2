package correlation

import (
	"fmt"
	"math"
	"testing"

	"geovmp/internal/rng"
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
// including absent ids, odd-length rows, all-zero rows, equal-peak ties and
// rows holding NaN, negative or -0 samples, at sample counts around the
// kernel's four-way unroll and one too wide to pack — Packed.CPUCorrInto
// must equal both PeakCoincidence and CPUCorr bit for bit, with and without
// sample orders built before the pack.
func TestPackedKernelMatchesPeakCoincidence(t *testing.T) {
	src := rng.New(3).Derive("packed-kernel")
	for _, samples := range []int{1, 2, 3, 4, 5, 12, packedMaxSamples + 1} {
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
					p = packedTestRow(src, samples+1+src.Intn(3), id%2 == 0) // odd-length
				case id%11 == 6:
					p = packedTestRow(src, samples-1, false) // shorter odd-length
				default:
					p = packedTestRow(src, samples, id%3 == 0)
				}
				rows[id] = p
				ps.Add(id, p)
			}
			if trial%2 == 0 {
				ps.EnsureOrders(nil)
			}
			// Pack every id plus two that were never seen, in shuffled
			// order.
			ids := append(src.Perm(n), n+3, -1)
			var pk Packed
			ps.Pack(&pk, ids)
			js := make([]int32, len(ids))
			for k, j := range src.Perm(len(ids)) {
				js[k] = int32(j)
			}
			dst := make([]float64, len(js))
			row := func(id int) []float64 {
				if id < 0 || id >= n {
					return nil
				}
				return rows[id]
			}
			for i, a := range ids {
				pk.CPUCorrInto(dst, i, js)
				for k, j := range js {
					b := ids[j]
					want := PeakCoincidence(row(a), row(b))
					if math.Float64bits(dst[k]) != math.Float64bits(want) {
						t.Fatalf("S=%d trial %d: packed(%d, %d) = %v, want PeakCoincidence %v",
							samples, trial, a, b, dst[k], want)
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
	ps.EnsureOrders(nil)
	var pk Packed
	ps.Pack(&pk, src.Perm(n))
	ids := src.Perm(n)[:n/2]
	ps.Pack(&pk, ids)
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

// BenchmarkPackedCPUCorrInto measures the packed kernel against the
// pruned per-pair CPUCorr at the embedding's scale: ~12k standard rows,
// partners in random order as the sampled embedding draws them, at the
// default 12 samples per row and at larger sample counts, where the packed
// kernel's full scan reads more of each row than the pruned walk does (96
// is past packedMaxSamples, so there both arms run CPUCorr).
// Rows are a per-VM load level plus 10% jitter, like a slot's downsampled
// utilization, so the pruned walk stops after a few samples as it does in
// the simulator.
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
		ps.EnsureOrders(nil)
		src := rng.New(11)
		ids := src.Perm(n)
		perm := src.Perm(n)
		js := make([]int32, n)
		jids := make([]int, n)
		for k, j := range perm {
			js[k] = int32(j)
			jids[k] = ids[j]
		}
		dst := make([]float64, n)
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.N)*n/b.Elapsed().Seconds()/1e6, "Mpairs/s")
		}
		b.Run(fmt.Sprintf("S%d/pruned", samples), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				a := ids[it%n]
				for k, j := range jids {
					dst[k] = ps.CPUCorr(a, j)
				}
			}
			report(b)
		})
		b.Run(fmt.Sprintf("S%d/packed", samples), func(b *testing.B) {
			var pk Packed
			ps.Pack(&pk, ids)
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				pk.CPUCorrInto(dst, it%n, js)
			}
			report(b)
		})
	}
}
