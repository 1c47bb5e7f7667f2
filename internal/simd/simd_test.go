package simd

import (
	"math"
	"testing"

	"geovmp/internal/rng"
)

// testDir is the coincident-pair direction the row drivers hand to Pairs.
func testDir(k int) (float64, float64) {
	ang := float64(k) * 0.7
	return math.Cos(ang), math.Sin(ang)
}

// runRow drives a whole row the way the embedding does: the kernel as far
// as it goes, then Pairs over the group it stopped before, until the row
// ends. It returns the kernel's stopping points.
func runRow(r *Row, exact func(*Row, int) int) []int {
	var stops []int
	m := len(r.Px)
	for k := 0; k < m; {
		k = exact(r, k)
		stops = append(stops, k)
		k = r.Pairs(k, min(k+4, m), testDir)
	}
	return stops
}

// cloneRow deep-copies a row, so both paths start from the same state.
func cloneRow(r *Row) *Row {
	c := *r
	for _, s := range []*[]float64{&c.Px, &c.Py, &c.Fx, &c.Fy, &c.Sft, &c.PrevD, &c.Wft, &c.WftT} {
		*s = append([]float64(nil), *s...)
	}
	return &c
}

// sameBits reports whether a and b have the same bits, all NaNs counting
// as one: IEEE 754 leaves open which payload a NaN result of two NaN
// operands carries, and the Go compiler swaps the operands of commutative
// operations as register allocation suits it — differently, for one, in
// the coverage-instrumented build the fuzzer runs — so the reference loop
// has no fixed NaN payload to match. Every other value, signed zeros and
// infinities included, must match exactly.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// sameRow fails the test unless two rows agree bit for bit (see sameBits)
// in every output and carried sum.
func sameRow(t *testing.T, label string, got, want *Row) {
	t.Helper()
	eq := func(name string, k int, a, b float64) {
		if !sameBits(a, b) {
			t.Fatalf("%s: %s[%d] = %v (%#x), want %v (%#x)", label, name, k, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	eq("Cost", 0, got.Cost, want.Cost)
	eq("FX", 0, got.FX, want.FX)
	eq("FY", 0, got.FY, want.FY)
	for k := range want.Px {
		eq("PrevD", k, got.PrevD[k], want.PrevD[k])
		eq("Fx", k, got.Fx[k], want.Fx[k])
		eq("Fy", k, got.Fy[k], want.Fy[k])
	}
}

// checkRow runs r on both paths and compares them. The kernel must stop at
// least as often as the reference loop, and only at group boundaries.
func checkRow(t *testing.T, label string, r *Row) {
	t.Helper()
	got, want := cloneRow(r), cloneRow(r)
	stops := runRow(got, (*Row).Exact)
	goStops := runRow(want, (*Row).ExactGo)
	sameRow(t, label, got, want)
	if len(stops) < len(goStops) {
		t.Fatalf("%s: kernel stopped %d times, the Go loop %d", label, len(stops), len(goStops))
	}
	for _, k := range stops {
		if k%4 != 0 && AVX2 && k != len(r.Px) {
			t.Fatalf("%s: kernel stopped mid-group at %d", label, k)
		}
	}
}

// randRow draws a row of m ordinary pairs around the row point, with a
// coincident partner at each index in coincide.
func randRow(src *rng.Source, m int, coincide ...int) *Row {
	r := &Row{X: src.Float64()*20 - 10, Y: src.Float64()*20 - 10, Cost: src.Float64(), FX: src.Float64(), FY: -src.Float64()}
	for range m {
		r.Px = append(r.Px, src.Float64()*20-10)
		r.Py = append(r.Py, src.Float64()*20-10)
		r.Fx = append(r.Fx, src.Float64()-0.5)
		r.Fy = append(r.Fy, src.Float64()-0.5)
		r.Sft = append(r.Sft, src.Float64()*2-1)
		r.PrevD = append(r.PrevD, src.Float64()*30)
		r.Wft = append(r.Wft, src.Float64()*2-1)
		r.WftT = append(r.WftT, src.Float64()*2-1)
	}
	for _, k := range coincide {
		r.Px[k], r.Py[k] = r.X, r.Y
	}
	return r
}

// TestExactMatchesGo is the row kernel's property test: at every row
// length up to 40 (every tail), with no coincident partner and with one in
// every lane position, the kernel path must equal the Go loop bit for bit.
func TestExactMatchesGo(t *testing.T) {
	src := rng.New(17).Derive("exact-row")
	for m := 0; m <= 40; m++ {
		checkRow(t, "clean", randRow(src, m))
		for c := 0; c < m; c++ {
			checkRow(t, "coincident", randRow(src, m, c))
		}
		if m >= 9 {
			checkRow(t, "two coincident", randRow(src, m, 1, m-2))
		}
	}
}

// fuzzVal maps a fuzz byte to a float the row kernel must treat like the Go
// loop: ordinary values near base, base itself (a coincident partner when
// base is the row point), a point within 1e-9 of it, NaNs of two payloads,
// both infinities, -0 and huge magnitudes.
func fuzzVal(b byte, base float64) float64 {
	switch b % 16 {
	case 0:
		return base
	case 1:
		return base + 1e-12
	case 2:
		return math.NaN()
	case 3:
		return math.Float64frombits(0xfff8000000000000) // x86's default NaN
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.Copysign(0, -1)
	case 7:
		return 1e300
	}
	return base + (float64(b)-128)/16
}

// FuzzExactRow holds the row kernel to the Go loop bit for bit (see
// sameBits) on every output and carried sum, over row lengths 0-95 (all
// tails), coincident partners in any lane, NaN and infinite positions and
// forces, and garbage previous distances like those a recycled buffer holds
// on a run's first pass. Each pair takes four bytes: partner x, y, previous distance, and
// one byte for the three force caches.
func FuzzExactRow(f *testing.F) {
	f.Add(uint8(9), []byte{8, 9, 10, 11, 0, 0, 12, 13, 20, 30, 40, 50, 60, 70, 80, 90})
	f.Add(uint8(4), []byte{1, 1, 2, 3, 4, 5, 6, 7, 0, 16, 8, 8, 99, 100, 101, 102})
	f.Add(uint8(37), []byte{200, 201, 3, 4, 5, 2, 2, 7, 7, 7, 7, 7, 0, 0, 0, 0, 8, 9, 10, 11})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 8
			}
			b := data[0]
			data = data[1:]
			return b
		}
		m := int(n) % 96
		r := &Row{X: fuzzVal(next(), 1), Y: fuzzVal(next(), -2), Cost: fuzzVal(next(), 0), FX: fuzzVal(next(), 0), FY: fuzzVal(next(), 0)}
		for range m {
			r.Px = append(r.Px, fuzzVal(next(), r.X))
			r.Py = append(r.Py, fuzzVal(next(), r.Y))
			r.PrevD = append(r.PrevD, fuzzVal(next(), 3))
			fb := next()
			r.Sft = append(r.Sft, fuzzVal(fb, 0.5))
			r.Wft = append(r.Wft, fuzzVal(fb>>2, -0.25))
			r.WftT = append(r.WftT, fuzzVal(fb>>4, 0.125))
			r.Fx = append(r.Fx, float64(fb)/64)
			r.Fy = append(r.Fy, -float64(fb)/32)
		}
		checkRow(t, "fuzz", r)
	})
}

// packedRows lays out n records of s samples at the given stride — the
// peak, then the samples, then padding holding a huge value that would
// change any combined peak a scan read it into.
func packedRows(src *rng.Source, n, s, stride int) []float64 {
	rec := make([]float64, n*stride)
	for j := range n {
		r := rec[j*stride : (j+1)*stride]
		peak := 0.0
		for t := 1; t <= s; t++ {
			switch src.Intn(6) {
			case 0:
				r[t] = 0
			case 1:
				r[t] = 0.5
			default:
				r[t] = src.Float64()
			}
			peak = max(peak, r[t])
		}
		for t := s + 1; t < stride; t++ {
			r[t] = 1e300
		}
		switch j % 7 {
		case 3:
			peak = SlowRow
		case 5:
			peak = math.Inf(-1)
		case 6:
			clear(r[1 : s+1])
			peak = 0 // an all-zero row
		}
		r[0] = peak
	}
	return rec
}

// TestPeakCorrMatchesGo is the packed scan's property test: at every width
// from 0 to 20 and at 57 and 96, with and without record padding, over
// partners in random order including repeats, SlowRow and -Inf-peak
// partners and all-zero rows, the kernel path must equal the Go loop bit
// for bit and stop where it stops.
func TestPeakCorrMatchesGo(t *testing.T) {
	src := rng.New(23).Derive("peak-corr")
	widths := []int{57, 96}
	for s := 0; s <= 20; s++ {
		widths = append(widths, s)
	}
	for _, s := range widths {
		for _, stride := range []int{s + 1, (s + 1 + 7) &^ 7} {
			const n = 29
			rec := packedRows(src, n, s, stride)
			js := make([]int32, 3*n)
			for k := range js {
				js[k] = int32(src.Intn(n))
			}
			for i := range n {
				if rec[i*stride] == SlowRow {
					continue
				}
				a, peakA := rec[i*stride+1:i*stride+1+s], rec[i*stride]
				for lo := 0; lo < len(js); {
					got := make([]float64, len(js)-lo)
					want := make([]float64, len(js)-lo)
					k := PeakCorr(got, a, peakA, rec, stride, js[lo:])
					wk := PeakCorrGo(want, a, peakA, rec, stride, js[lo:])
					if k != wk {
						t.Fatalf("S=%d stride %d row %d from %d: kernel stopped at %d, Go at %d", s, stride, i, lo, k, wk)
					}
					for q := range k {
						if math.Float64bits(got[q]) != math.Float64bits(want[q]) {
							t.Fatalf("S=%d stride %d row %d partner %d: kernel %v, Go %v", s, stride, i, js[lo+q], got[q], want[q])
						}
					}
					lo += k + 1 // past the SlowRow partner
				}
			}
		}
	}
}

// runDraw drives a whole draw the way the sampled embedding does: the kernel
// as far as it goes, then Pairs over the group it stopped before, until the
// draw ends. It returns the kernel's stopping points.
func runDraw(d *Draw, sampled func(*Draw, int) int) []int {
	var stops []int
	m := len(d.J)
	for k := 0; k < m; {
		k = sampled(d, k)
		stops = append(stops, k)
		k = d.Pairs(k, min(k+4, m), testDir)
	}
	return stops
}

// checkDraw runs d on both paths and compares the carried forces bit for
// bit (see sameBits). The kernel must stop at least as often as the
// reference loop, and only at group boundaries.
func checkDraw(t *testing.T, label string, d *Draw) {
	t.Helper()
	got, want := *d, *d
	stops := runDraw(&got, (*Draw).Sampled)
	goStops := runDraw(&want, (*Draw).SampledGo)
	if !sameBits(got.FX, want.FX) || !sameBits(got.FY, want.FY) {
		t.Fatalf("%s: kernel force (%v, %v), Go loop (%v, %v)", label, got.FX, got.FY, want.FX, want.FY)
	}
	if len(stops) < len(goStops) {
		t.Fatalf("%s: kernel stopped %d times, the Go loop %d", label, len(stops), len(goStops))
	}
	for _, k := range stops {
		if k%4 != 0 && AVX2 && k != len(d.J) {
			t.Fatalf("%s: kernel stopped mid-group at %d", label, k)
		}
	}
}

// randDraw draws m peers among n scattered points around the draw's point,
// with forces that repel, attract, are zero or NaN; the peer at each index
// in coincide sits on the point and repels.
func randDraw(src *rng.Source, n, m int, coincide ...int) *Draw {
	d := &Draw{X: src.Float64()*20 - 10, Y: src.Float64()*20 - 10, Scale: 1 + src.Float64(), FX: src.Float64(), FY: -src.Float64()}
	for range n {
		d.Px = append(d.Px, src.Float64()*20-10)
		d.Py = append(d.Py, src.Float64()*20-10)
	}
	for range m {
		d.J = append(d.J, int32(src.Intn(n)))
		var f float64
		switch src.Intn(8) {
		case 0:
			f = -src.Float64()
		case 1:
			f = 0
		case 2:
			f = math.NaN()
		default:
			f = src.Float64()
		}
		d.F = append(d.F, f)
	}
	for _, k := range coincide {
		// A fresh point, so the move cannot make another peer coincident.
		d.J[k] = int32(len(d.Px))
		d.Px = append(d.Px, d.X)
		d.Py = append(d.Py, d.Y)
		d.F[k] = 0.5
	}
	return d
}

// TestSampledMatchesGo is the sampled kernel's property test: at every draw
// length up to 40 (every tail), with no coincident peer, with a repelling
// one in every lane position, with a non-repelling one there and with no
// repelling peer at all on a -0 force, the kernel path must equal the Go
// loop bit for bit.
func TestSampledMatchesGo(t *testing.T) {
	src := rng.New(19).Derive("sampled-row")
	for m := 0; m <= 40; m++ {
		checkDraw(t, "clean", randDraw(src, 29, m))
		for c := 0; c < m; c++ {
			checkDraw(t, "coincident", randDraw(src, 29, m, c))
			d := randDraw(src, 29, m, c)
			d.F[c] = 0
			checkDraw(t, "coincident, not repelling", d)
		}
		if m >= 9 {
			checkDraw(t, "two coincident", randDraw(src, 29, m, 1, m-2))
		}
		// Non-repelling lanes must leave a -0 force as it is.
		d := randDraw(src, 29, m)
		d.FX, d.FY = math.Copysign(0, -1), math.Copysign(0, -1)
		for k := range d.F {
			d.F[k] = -math.Abs(d.F[k])
		}
		checkDraw(t, "signed zero", d)
	}
}

// FuzzSampledRow holds the sampled kernel to the Go loop bit for bit (see
// sameBits) on the carried forces, over draw lengths 0-95 (every tail),
// coincident peers in any lane, repeated and self peers, NaN and infinite
// positions, forces and scales, and non-repelling peers outside Px (which
// the Go loop skips without reading). The first bytes set the point count
// (1-16), the draw's point and scale; each peer then takes two bytes, its
// index and its force.
func FuzzSampledRow(f *testing.F) {
	f.Add(uint8(9), []byte{4, 8, 9, 10, 0, 0, 12, 13, 20, 1, 40, 2, 60, 3, 80, 90, 0, 12})
	f.Add(uint8(5), []byte{1, 0, 0, 8, 0, 9, 0, 10, 0, 11, 0, 12})
	f.Add(uint8(38), []byte{16, 200, 201, 3, 4, 5, 2, 2, 7, 7, 7, 7, 7, 0, 0, 0, 0, 8, 9, 10, 11, 250, 3})
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, m uint8, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 8
			}
			b := data[0]
			data = data[1:]
			return b
		}
		n := int(next())%16 + 1
		d := &Draw{X: fuzzVal(next(), 1), Y: fuzzVal(next(), -2), Scale: fuzzVal(next(), 2), FX: fuzzVal(next(), 0), FY: fuzzVal(next(), 0)}
		for range n {
			d.Px = append(d.Px, fuzzVal(next(), d.X))
			d.Py = append(d.Py, fuzzVal(next(), d.Y))
		}
		for range int(m) % 96 {
			jb, fb := next(), next()
			j, f := int32(int(jb)%n), fuzzVal(fb, 0.25)
			if jb >= 240 {
				// Outside Px: the Go loop must skip it, so it must not
				// repel.
				j, f = int32(n)+int32(jb)-240, -math.Abs(f)
				if jb == 255 {
					j = -1
				}
				if math.IsNaN(f) {
					f = 0
				}
			}
			d.J = append(d.J, j)
			d.F = append(d.F, f)
		}
		checkDraw(t, "fuzz", d)
	})
}

// checkDiurnal runs Diurnal and the reference loop over the same hours and
// compares them bit for bit (see sameBits), also against math.Cos itself.
func checkDiurnal(t *testing.T, label string, hours []float64, peak float64) {
	t.Helper()
	got, want := make([]float64, len(hours)), make([]float64, len(hours))
	Diurnal(got, hours, peak)
	DiurnalGo(want, hours, peak)
	for k, h := range hours {
		ref := math.Cos((h - peak) / 24 * 2 * math.Pi)
		if !sameBits(got[k], want[k]) || !sameBits(got[k], ref) {
			t.Fatalf("%s: Diurnal(%v, peak %v) = %v (%#x), Go loop %v, math.Cos %v", label, h, peak, got[k], math.Float64bits(got[k]), want[k], ref)
		}
	}
}

// TestDiurnalMatchesCos holds the diurnal kernel to math.Cos bit for bit:
// at the hour of every 5 s step of a week (the hours of every fine and
// profile grid), for peaks inside and outside [0, 24); at random hours and
// peaks over magnitudes up to past 2^29; and in groups whose lanes hold a
// NaN, an infinity or an argument past 2^29, at every lane position and
// every row tail.
func TestDiurnalMatchesCos(t *testing.T) {
	const stepSec, week = 5, 7 * 86400
	hours := make([]float64, 0, week/stepSec)
	for sec := 0.0; sec < week; sec += stepSec {
		day := int(sec / 86400)
		hours = append(hours, sec/3600-float64(day)*24)
	}
	for _, peak := range []float64{0, 2, 9.5, 14, 20.25, 23.999, -1.5, 24, 25.5, -300, 1e4} {
		checkDiurnal(t, "week", hours, peak)
	}

	src := rng.New(3)
	for n := 0; n < 200; n++ {
		h := make([]float64, n%37)
		scale := math.Pow(10, float64(n%12)) // past 2^29 radians from 1e8 on
		for k := range h {
			h[k] = src.Range(-scale, scale)
		}
		checkDiurnal(t, "random", h, src.Range(-scale, scale))
	}

	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1 << 33, -(1 << 33), 1e300, 2.05e9}
	for _, s := range special {
		for m := 1; m <= 13; m++ {
			for at := 0; at < m; at++ {
				h := make([]float64, m)
				for k := range h {
					h[k] = float64(k) * 1.7
				}
				h[at] = s
				checkDiurnal(t, "special", h, 14)
			}
		}
	}
}

// FuzzDiurnal holds Diurnal to its Go loop (and math.Cos) bit for bit over
// row lengths 0-40 of arbitrary hours — special values included, see
// fuzzVal — and an arbitrary peak.
func FuzzDiurnal(f *testing.F) {
	f.Add(uint8(9), 14.0, []byte{8, 9, 10, 11, 0, 0, 12, 13})
	f.Add(uint8(4), -3.0, []byte{2, 3, 4, 5, 6, 7})
	f.Add(uint8(0), 0.0, []byte{})
	f.Fuzz(func(t *testing.T, n uint8, peak float64, data []byte) {
		h := make([]float64, int(n)%41)
		for k := range h {
			b := byte(k)
			if k < len(data) {
				b = data[k]
			}
			h[k] = fuzzVal(b, float64(k)*0.37)
			if k+1 < len(data) && data[k+1]&1 == 1 {
				h[k] *= 1e8 // arguments past 2^29
			}
		}
		checkDiurnal(t, "fuzz", h, peak)
	})
}

// randUtil returns a segment of m steps with random per-VM terms and
// columns: amplitudes around the synthetic workload's, lattice ends in
// [0, 1), and means that reach both clamp bounds.
func randUtil(src *rng.Source, m int, burst bool) *Util {
	u := &Util{
		Mean: src.Range(-0.2, 1.2), Amp: src.Range(0, 0.5), DayF: src.Range(0.4, 1.6),
		SlowA: src.Float64(), SlowB: src.Float64(), SlowAmp: src.Range(0, 0.2),
		FastKey: src.Uint64(), FastAmp: src.Range(0, 0.2),
		BurstA: src.Float64(), BurstB: src.Float64(),
	}
	if burst {
		u.BurstAmp = src.Range(0.01, 0.6)
	}
	for range m {
		u.Diurnal = append(u.Diurnal, src.Range(-1, 1))
		u.SlowEase = append(u.SlowEase, src.Float64())
		u.BurstEase = append(u.BurstEase, src.Float64())
		u.Keys = append(u.Keys, src.Uint64())
	}
	return u
}

// checkUtil runs UtilRow and the reference loop over the same segment and
// compares them bit for bit (see sameBits), also with Diurnal aliasing dst.
func checkUtil(t *testing.T, label string, u *Util) {
	t.Helper()
	m := len(u.Keys)
	got, want := make([]float64, m), make([]float64, m)
	UtilRow(got, u)
	UtilRowGo(want, u)
	alias := *u
	alias.Diurnal = append([]float64(nil), u.Diurnal...)
	UtilRow(alias.Diurnal, &alias)
	for k := range want {
		if !sameBits(got[k], want[k]) || !sameBits(alias.Diurnal[k], want[k]) {
			t.Fatalf("%s: step %d of %d = %v (%#x), aliased %v, Go loop %v (%#x)", label, k, m, got[k], math.Float64bits(got[k]), alias.Diurnal[k], want[k], math.Float64bits(want[k]))
		}
	}
}

// TestUtilRowMatchesGo holds the utilization segment kernel to its Go loop
// bit for bit, with and without bursts, over every segment tail, and on
// edge cases: ease weights of exactly 0 and 1, noise hashes at both ends
// of [0, 1), and values at the clamp bounds.
func TestUtilRowMatchesGo(t *testing.T) {
	src := rng.New(4)
	for n := 0; n < 400; n++ {
		checkUtil(t, "random", randUtil(src, n%45, n%2 == 0))
	}
	u := randUtil(src, 16, true)
	u.SlowEase[0], u.SlowEase[1], u.BurstEase[2], u.BurstEase[3] = 0, 1, 0, 1
	u.Keys[4], u.Keys[5] = u.FastKey, ^u.FastKey
	u.Diurnal[6], u.Diurnal[7] = math.Inf(1), math.NaN()
	u.BurstA, u.BurstB = 0.75, 0.75
	checkUtil(t, "edges", u)
	u.Mean, u.Amp, u.SlowAmp, u.FastAmp, u.BurstAmp = 0.02, 0, 0, 0, 0
	checkUtil(t, "at the floor", u)
	u.Mean, u.BurstAmp = 1, math.NaN()
	checkUtil(t, "at the cap, NaN burst amplitude", u)
}

// FuzzUtilRow holds UtilRow to its Go loop bit for bit (see sameBits) over
// segment lengths 0-63 of arbitrary columns and per-VM terms, special
// values included (see fuzzVal), with and without bursts.
func FuzzUtilRow(f *testing.F) {
	f.Add(uint8(9), uint64(42), []byte{8, 9, 10, 11, 0, 0, 12, 13, 20, 30})
	f.Add(uint8(130), uint64(7), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(0), uint64(0), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, seed uint64, data []byte) {
		next := func(base float64) float64 {
			if len(data) == 0 {
				return base
			}
			b := data[0]
			data = data[1:]
			return fuzzVal(b, base)
		}
		src := rng.New(seed)
		u := randUtil(src, int(n)%64, n >= 128)
		for _, p := range []*float64{&u.Mean, &u.Amp, &u.DayF, &u.SlowA, &u.SlowB, &u.SlowAmp, &u.FastAmp, &u.BurstA, &u.BurstB} {
			*p = next(*p)
		}
		for k := range u.Keys {
			u.Diurnal[k] = next(u.Diurnal[k])
			u.SlowEase[k] = next(u.SlowEase[k])
			u.BurstEase[k] = next(u.BurstEase[k])
		}
		checkUtil(t, "fuzz", u)
	})
}
