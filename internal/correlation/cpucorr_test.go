package correlation

import (
	"bytes"
	"math"
	"testing"

	"geovmp/internal/rng"
	"geovmp/internal/simd"
)

// randProfile synthesizes a deterministic pseudo-random profile. Values are
// non-negative like real utilizations; a zero fraction of samples is forced
// to exactly 0 so ties and flat stretches occur.
func randProfile(src *rng.Source, n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		switch src.Intn(5) {
		case 0:
			p[i] = 0
		case 1:
			p[i] = 0.5 // frequent exact ties across profiles
		default:
			p[i] = src.Float64()
		}
	}
	return p
}

// TestCPUCorrMatchesPeakCoincidence is the property test of CPUCorr's
// stored-peak scan: over randomized profiles — including all-zero rows,
// equal-peak ties and rows a packed table marks slow (a negative or NaN
// sample) — every pairwise CPUCorr must equal the reference
// PeakCoincidence bit for bit, before and (odd trials) after a fast table
// is packed from the set, since packing must never move CPUCorr.
func TestCPUCorrMatchesPeakCoincidence(t *testing.T) {
	src := rng.New(7).Derive("pruned-kernel")
	const samples = 12
	for trial := 0; trial < 25; trial++ {
		ps := NewProfileSet(samples)
		n := 8 + src.Intn(24)
		rows := make([][]float64, n)
		for id := 0; id < n; id++ {
			var p []float64
			switch {
			case trial == 0 && id < 3:
				p = make([]float64, samples) // all-zero profiles
			case id%7 == 3:
				// Equal-peak ties: the shared maximum lands on a
				// VM-dependent sample.
				p = make([]float64, samples)
				p[id%samples] = 0.75
				p[(id+5)%samples] = 0.75
			case id%5 == 4:
				p = randProfile(src, samples)
				p[id%samples] = -src.Float64() // a negative sample
			case id%11 == 10:
				p = randProfile(src, samples)
				p[id%samples] = math.NaN()
			default:
				p = randProfile(src, samples)
			}
			rows[id] = p
			ps.Add(id, p)
		}
		if trial%2 == 1 {
			ids := make([]int, n)
			for id := range ids {
				ids[id] = id
			}
			var pk Packed
			ps.Pack(&pk, ids, true)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := PeakCoincidence(rows[i], rows[j])
				if got := ps.CPUCorr(i, j); got != want {
					t.Fatalf("trial %d: CPUCorr(%d, %d) = %v, want PeakCoincidence %v",
						trial, i, j, got, want)
				}
			}
		}
	}
}

// fuzzSample maps one fuzz byte to a profile sample, weighting ordinary
// utilizations but reaching every value the kernels treat specially: +0,
// -0, NaN, +Inf, negatives, exact ties, a peak whose pair sum overflows,
// the last quantizable value and the first past the uint16 tick range, and
// values just over the whole tick counts around qMinDen/2 (248-263 ticks),
// so two row peaks can sum to either side of qMinDen. Ordinary values start at 10/256, so rows
// of them can pair under qMinDen.
func fuzzSample(b byte) float64 {
	switch b % 16 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return -float64(b) / 255
	case 5:
		return 0.5
	case 6:
		return math.MaxFloat64 / 1.5
	case 7:
		return tickEdge - 0.25/qScale
	case 8:
		return (float64(qMinDen/2-8+int(b>>4)) + 0.3) / qScale
	case 9:
		return tickEdge
	}
	return float64(b) / 256
}

// FuzzCPUCorr holds both exact kernels — ProfileSet.CPUCorr and an exact
// Packed table — to PeakCoincidence bit for bit, and a fast Packed table to
// the quantized oracle bit for bit and to PeakCoincidence within FastEps,
// each packed table on its kernel scan and on simd's Go oracle, over
// arbitrary row widths (0-96), absent ids and adversarial samples. Each
// row takes one header byte (low two bits: 0/1 a row, 2 absent, 3 a row
// whose sample at the rest of the byte, modulo the width, is NaN) and then
// one byte per sample.
func FuzzCPUCorr(f *testing.F) {
	f.Add(uint8(12), []byte{0, 7, 9, 200, 31, 5, 5, 18, 77, 0, 1, 12, 99, 1, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50, 51})
	f.Add(uint8(57), []byte{0, 2, 3, 0x13, 9, 1, 250, 6, 6, 2, 8, 0})
	f.Add(uint8(64), []byte{1, 22, 23, 24, 25, 26, 4, 20, 0, 0, 0, 16, 32})
	f.Add(uint8(96), []byte{0, 255, 254, 253, 1, 3, 3, 3, 2, 0, 5, 5, 5})
	f.Add(uint8(0), []byte{0, 3, 0x0f, 1, 2, 3})
	f.Add(uint8(5), []byte{0, 1, 2, 3, 4, 5, 3, 0x17, 6, 6, 6, 0, 0, 16, 17, 18, 19})
	// Two clean wide rows (header 8 and samples of 248 ticks) whose peaks
	// (263 ticks) coincide on the last sample only, so a scan that stops
	// short of the row's end is caught.
	for _, w := range []uint8{57, 64, 96} {
		row := bytes.Repeat([]byte{8}, int(w)+1)
		row[w] = 0xf8
		f.Add(w, append(row, row...))
	}
	// Near-idle rows (tick peaks of 248, summing under qMinDen)
	// against a busy one, an all-zero pair, and rows either side of the
	// tick edge, at widths 14, 15 and 30.
	f.Add(uint8(14), []byte{0, 8, 8, 10, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 1, 10, 10, 8, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
		0, 200, 13, 14, 15, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	// A NaN in an otherwise ordinary row, opposite the partner's peak.
	f.Add(uint8(4), []byte{0, 2, 5, 5, 5, 0, 255, 8, 8, 8})
	f.Add(uint8(15), append(append([]byte{0}, make([]byte, 15)...), append([]byte{1}, make([]byte, 15)...)...))
	var edge []byte
	for _, r := range []struct{ fill, at, v byte }{{13, 0, 7}, {5, 1, 9}, {5, 29, 7}} {
		row := bytes.Repeat([]byte{r.fill}, 31)
		row[0] = 0 // header: a standard row
		row[1+r.at] = r.v
		edge = append(edge, row...)
	}
	f.Add(uint8(30), edge)
	// Rows whose tick peaks are 248 (byte 8), 249 (24) and 263 (248): the
	// pairs sum to 511, one tick under qMinDen, and to 512, on it.
	f.Add(uint8(7), []byte{0, 8, 0, 0, 0, 0, 0, 10, 1, 0, 0, 248, 0, 0, 0, 0, 0, 24, 0, 0, 0, 0, 0, 10})
	f.Fuzz(func(t *testing.T, width uint8, data []byte) {
		s := int(width) % 97
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		ps := NewProfileSet(s)
		var rows [][]float64
		for id := 0; id < 8 && len(data) > 0; id++ {
			hdr := next()
			if hdr&3 == 2 {
				rows = append(rows, nil)
				continue
			}
			p := make([]float64, s)
			for k := range p {
				p[k] = fuzzSample(next())
			}
			if hdr&3 == 3 && s > 0 {
				p[int(hdr>>2)%s] = math.NaN()
			}
			ps.Add(id, p)
			rows = append(rows, p)
		}
		// Every row plus one id never seen, as partners in order and then
		// reversed, so the scan stops at and resumes past slow partners
		// from both sides.
		ids := make([]int, len(rows)+1)
		js := make([]int32, 2*len(ids))
		for k := range ids {
			ids[k] = k
			js[k] = int32(k)
			js[len(js)-1-k] = int32(k)
		}
		row := func(id int) []float64 {
			if id < len(rows) {
				return rows[id]
			}
			return nil
		}
		var pk, fast Packed
		ps.Pack(&pk, ids, false)
		ps.Pack(&fast, ids, true)
		o := newFastOracle(ps)
		dst := make([]float64, len(js))
		gdst := make([]float64, len(js))
		fdst := make([]float64, len(js))
		fgdst := make([]float64, len(js))
		for i, a := range ids {
			pk.CPUCorrInto(dst, i, js)
			pk.cpuCorrInto(gdst, i, js, simd.PeakCorrGo)
			fast.CPUCorrInto(fdst, i, js)
			fast.cpuCorrInto(fgdst, i, js, simd.PeakCorrGo)
			for k, j := range js {
				b := ids[j]
				exact := PeakCoincidence(row(a), row(b))
				want := math.Float64bits(exact)
				if got := math.Float64bits(ps.CPUCorr(a, b)); got != want {
					t.Fatalf("S=%d: CPUCorr(%d, %d) = %#x, want PeakCoincidence %#x", s, a, b, got, want)
				}
				if got := math.Float64bits(dst[k]); got != want {
					t.Fatalf("S=%d: packed(%d, %d) = %#x, want PeakCoincidence %#x", s, a, b, got, want)
				}
				if got := math.Float64bits(gdst[k]); got != want {
					t.Fatalf("S=%d: packed Go scan (%d, %d) = %#x, want PeakCoincidence %#x", s, a, b, got, want)
				}
				checkFast(t, o, a, b, fdst[k], exact)
				checkFast(t, o, a, b, fgdst[k], exact)
			}
		}
	})
}

// BenchmarkCPUCorr measures the exact per-pair CPUCorr on standard 12-sample
// rows, the shape serve's RefineOne queries pair by pair, so kernel-level
// wins are visible without running a full experiment cell.
func BenchmarkCPUCorr(b *testing.B) {
	ps, js := benchKernelSet()
	benchKernel(b, func(dst []float64, a int, bs []int) {
		for k, j := range bs {
			dst[k] = ps.CPUCorr(a, j)
		}
	}, js)
}

// benchKernelSet builds the kernel benchmarks' rows — 2048 standard rows
// of the default 12 samples — and the all-rows partner list.
func benchKernelSet() (*ProfileSet, []int) {
	const n, samples = 2048, 12
	ps := NewProfileSet(samples)
	p := make([]float64, samples)
	for i := 0; i < n; i++ {
		for t := range p {
			p[t] = rng.Noise01(7, uint64(i), uint64(t))
		}
		ps.Add(i, p)
	}
	js := make([]int, n)
	for j := range js {
		js[j] = j
	}
	return ps, js
}

// benchKernel times one batched kernel call per op against every row,
// cycling the anchor row, and reports pair throughput.
func benchKernel(b *testing.B, kernel func(dst []float64, a int, bs []int), js []int) {
	dst := make([]float64, len(js))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		kernel(dst, it%len(js), js)
	}
	b.ReportMetric(float64(b.N)*float64(len(js))/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}
