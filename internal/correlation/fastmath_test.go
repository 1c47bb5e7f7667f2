package correlation

import (
	"math"
	"testing"

	"geovmp/internal/rng"
)

// fastOracle is the quantized kernel as it ran before the packed fast
// table: id-addressed tables over the set's arena — every standard row's
// sample order by descending utilization, its ticks in sample order and in
// that order, and whether the row quantizes — walked anchor-descending in
// strips of fastStrip with an early exit. The packed fast kernel must
// equal it bit for bit.
type fastOracle struct {
	ps              *ProfileSet
	ord, qrow, qord []uint16
	qok             []bool
}

// fastStrip is the oracle walk's blocking factor: the early-exit bound is
// tested once per strip of 8 anchor samples.
const fastStrip = 8

func newFastOracle(ps *ProfileSet) *fastOracle {
	o := &fastOracle{ps: ps}
	s := ps.samples
	if s <= 0 || s > math.MaxUint16 {
		return o
	}
	n := len(ps.arena)
	o.ord, o.qrow, o.qord = make([]uint16, n), make([]uint16, n), make([]uint16, n)
	o.qok = make([]bool, n/s)
	for r := range o.qok {
		row := ps.arena[r*s : (r+1)*s]
		ord := o.ord[r*s : (r+1)*s]
		sortRowDesc(row, ord)
		o.qok[r] = quantizeRow(row, ord, o.qrow[r*s:(r+1)*s], o.qord[r*s:(r+1)*s])
	}
	return o
}

// quantizeRow fills a row's ticks in sample order (qr) and in ord's order
// (qo), rounding half-up, and reports whether every sample fits the uint16
// range. Rounding is monotone, so qo[0] is the row's tick peak.
func quantizeRow(row []float64, ord, qr, qo []uint16) bool {
	for t, v := range row {
		q := v*qScale + 0.5
		if !(v >= 0 && q < 65536) {
			return false
		}
		qr[t] = uint16(q)
	}
	for k, t := range ord {
		qo[k] = qr[t]
	}
	return true
}

// sortRowDesc fills ord with row's sample indices sorted by descending
// utilization; equal samples keep ascending index order.
func sortRowDesc(row []float64, ord []uint16) {
	for i := range ord {
		ord[i] = uint16(i)
	}
	for i := 1; i < len(row); i++ {
		t := ord[i]
		v := row[t]
		j := i - 1
		for j >= 0 && row[ord[j]] < v {
			ord[j+1] = ord[j]
			j--
		}
		ord[j+1] = t
	}
}

// row returns id's oracle tables, or ok false when id has no quantized
// standard row.
func (o *fastOracle) row(id int) (qr, ord, qo []uint16, ok bool) {
	ps, s := o.ps, o.ps.samples
	if id < 0 || id >= len(ps.off) || ps.off[id] < 0 || o.qok == nil {
		return nil, nil, nil, false
	}
	off := int(ps.off[id])
	if !o.qok[off/s] {
		return nil, nil, nil, false
	}
	return o.qrow[off : off+s], o.ord[off : off+s], o.qord[off : off+s], true
}

// corr is the oracle's CPU-load correlation of ids i and j: the pruned
// quantized walk where both rows quantize and their tick peaks sum to at
// least qMinDen, CPUCorr otherwise.
func (o *fastOracle) corr(i, j int) float64 {
	_, ordA, qoA, okA := o.row(i)
	qb, _, qoB, okB := o.row(j)
	if !okA || !okB {
		return o.ps.CPUCorr(i, j)
	}
	den := int32(qoA[0]) + int32(qoB[0])
	if den < qMinDen {
		return o.ps.CPUCorr(i, j)
	}
	return fastPeakCoincidence(qb, ordA, qoA, int32(qoB[0]), den)
}

// fastPeakCoincidence is the oracle's pruned walk: qb is the partner row
// in sample order, ordA/qoA the anchor's descending sample order and
// ticks, qpB the partner's tick peak and den the tick peak sum. Every
// unvisited anchor sample is <= qoA[st], so the strip-level exit never
// stops short of the exact integer max.
func fastPeakCoincidence(qb []uint16, ordA, qoA []uint16, qpB, den int32) float64 {
	n := len(ordA)
	best := int32(-1)
	for st := 0; st < n; st += fastStrip {
		if int32(qoA[st])+qpB <= best {
			break
		}
		end := min(st+fastStrip, n)
		for k := st; k < end; k++ {
			if sum := int32(qoA[k]) + int32(qb[ordA[k]]); sum > best {
				best = sum
			}
		}
	}
	return clampCorr(float64(best) / float64(den))
}

// checkFast holds one packed fast result to the oracle bit for bit and to
// the exact PeakCoincidence within FastEps.
func checkFast(t *testing.T, o *fastOracle, a, b int, got, exact float64) {
	t.Helper()
	if want := o.corr(a, b); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("S=%d: fast packed(%d, %d) = %v, want oracle %v", o.ps.samples, a, b, got, want)
	}
	if math.Float64bits(got) != math.Float64bits(exact) && !(math.Abs(got-exact) <= FastEps) {
		t.Fatalf("S=%d: fast packed(%d, %d) = %v, exact %v: off by more than FastEps %v",
			o.ps.samples, a, b, got, exact, FastEps)
	}
}

// tickEdge is the utilization whose ticks round to 65536, one past the
// uint16 range: rows holding it take the exact kernel, rows holding
// tickEdge-tick/4 still quantize (to 65535).
const tickEdge = 65535.5 / qScale

// fastProfiles builds an adversarial mix of profile shapes: random loads,
// near-idle rows (forcing the quantized denominator fallback), constant
// ties, rows with a negative sample, saturated rows above the quantizable
// range, exact-zero rows, and rows either side of the tick edge.
func fastProfiles(seed uint64, n, samples int) [][]float64 {
	profs := make([][]float64, n)
	for i := range profs {
		k := uint64(i)
		p := make([]float64, samples)
		switch i % 8 {
		case 0: // generic random load
			for t := range p {
				p[t] = rng.Noise01(seed, k, uint64(t))
			}
		case 1: // near idle: peaks sum below the quantized denominator floor
			for t := range p {
				p[t] = rng.Noise01(seed, k, uint64(t)) * 0.03
			}
		case 2: // constant ties
			c := 0.25 + 0.5*rng.Noise01(seed, k)
			for t := range p {
				p[t] = c
			}
		case 3: // a negative sample: a slow row in both layouts
			for t := range p {
				p[t] = rng.Noise01(seed, k, uint64(t))
			}
			p[i%samples] = -rng.Noise01(seed, k)
		case 4: // saturated beyond the uint16 fixed-point range
			for t := range p {
				p[t] = 20 * rng.Noise01(seed, k, uint64(t))
			}
		case 5: // all zero
		case 6: // peak just under the tick edge: the largest quantized row
			for t := range p {
				p[t] = rng.Noise01(seed, k, uint64(t))
			}
			p[i%samples] = tickEdge - 0.25/qScale
		default: // peak on the tick edge: unquantizable
			for t := range p {
				p[t] = rng.Noise01(seed, k, uint64(t))
			}
			p[i%samples] = tickEdge
		}
		profs[i] = p
	}
	return profs
}

// TestFastKernelErrorBudget is the property test of the fast mode's error
// proof: for every pair of a fast table — including unquantizable rows,
// near-idle fallbacks and missing ids, at widths within one 16-lane record
// and past it — the packed fast kernel equals the oracle bit for bit and
// |fast − exact| ≤ FastEps.
func TestFastKernelErrorBudget(t *testing.T) {
	for _, samples := range []int{1, 12, 14, 17, 96} {
		for _, seed := range []uint64{3, 11} {
			const n = 64
			ps := NewProfileSet(samples)
			for i, p := range fastProfiles(seed, n, samples) {
				ps.Add(i, p)
			}
			o := newFastOracle(ps)
			ids := make([]int, 0, n+1)
			for j := 0; j < n; j++ {
				ids = append(ids, j)
			}
			ids = append(ids, n+7) // missing id: both kernels answer neutral
			js := make([]int32, len(ids))
			for k := range js {
				js[k] = int32(k)
			}
			var pk Packed
			ps.Pack(&pk, ids, true)
			fast := make([]float64, len(js))
			worst := 0.0
			for i, a := range ids {
				pk.CPUCorrInto(fast, i, js)
				for k, b := range ids {
					exact := ps.CPUCorr(a, b)
					checkFast(t, o, a, b, fast[k], exact)
					worst = max(worst, math.Abs(fast[k]-exact))
				}
			}
			t.Logf("S=%d seed %d: worst |fast-exact| = %.2e (budget %.2e)", samples, seed, worst, FastEps)
		}
	}
}

// TestFastKernelDisabledMatchesExact verifies the fast table degrades to
// the exact kernel where quantization is rejected: samples on and past the
// end of the uint16 range, and a NaN or negative sample.
func TestFastKernelDisabledMatchesExact(t *testing.T) {
	ps := NewProfileSet(2)
	ps.Add(1, []float64{0.2, 16.0})        // 65536 ticks: one past the range
	ps.Add(2, []float64{0.5, math.Inf(1)}) // clean, but not quantizable
	ps.Add(3, []float64{25.0, 0.1})        // > uint16 range
	ps.Add(4, []float64{math.NaN(), 0.5})
	ps.Add(5, []float64{-0.25, 0.5})
	ps.Add(6, []float64{1.0, 0.25}) // quantizable
	ids := []int{1, 2, 3, 4, 5, 6}
	js := []int32{0, 1, 2, 3, 4, 5}
	var pk Packed
	ps.Pack(&pk, ids, true)
	dst := make([]float64, len(js))
	for i, a := range ids {
		pk.CPUCorrInto(dst, i, js)
		for k, b := range ids {
			if a == 6 && b == 6 {
				continue // the one quantized pair
			}
			if got, want := dst[k], ps.CPUCorr(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fast packed(%d, %d) = %v, CPUCorr = %v", a, b, got, want)
			}
		}
	}
}
