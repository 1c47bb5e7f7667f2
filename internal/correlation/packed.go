package correlation

import (
	"math"
	"slices"

	"geovmp/internal/simd"
)

// Packed is a ProfileSet's rows laid out in a caller's point order for the
// length of one query-heavy pass (one embedding run): point i's record is
// its peak followed by its samples, one contiguous, line-aligned stretch of
// memory. Resolving a partner is then one record load instead of the
// id -> offset -> arena row and id -> peak chain of CPUCorr, which at paper
// scale costs more than the samples the kernel compares. Build one with
// ProfileSet.Pack; it is read-only afterwards and safe for concurrent
// readers.
//
// A table holds n records of (S+1 rounded up to 8) float64s: 128 B per
// point at the default 12 samples (1.5 MiB at 12.6k points). An exact table
// holds the rows themselves; a fast table holds the same rows quantized to
// qScale ticks, each tick count stored as an integer-valued float64 (see
// Pack).
type Packed struct {
	ps     *ProfileSet
	ids    []int
	s      int // samples per row
	fast   bool
	stride int       // record length: peak, samples, padding
	rec    []float64 // per point, peak (or slowRow), then the s samples
}

// Record markers in the peak slot. Real peaks are never negative (Add
// takes the max from 0), so the markers cannot collide. slowRow marks a
// point whose pairs take ProfileSet.CPUCorr because its row holds a sample
// the packed kernel's integer max cannot order (see cleanRow) or, in a
// fast table, one that does not quantize. A point without a profile gets
// peak -Inf: every pair with it then has a non-positive (or NaN) peak sum
// and takes the neutral 0.5, as CPUCorr answers, without a branch of its
// own (whatever its record's samples hold is scanned and discarded).
const slowRow = simd.SlowRow

// cleanRow reports whether every sample of row is +0, positive or +Inf.
// Sums of such samples are never NaN and never carry the sign bit, so their
// IEEE bit patterns order exactly as their values — which lets the packed
// kernel take the combined peak with branch-free integer maxima.
func cleanRow(row []float64) bool {
	for _, v := range row {
		if math.Float64bits(v) > math.Float64bits(math.Inf(1)) {
			return false
		}
	}
	return true
}

// Pack lays out ids' rows in p, point i holding ids[i]'s row, reusing p's
// backing arrays. Without fast a record holds the row's samples and peak;
// with fast it holds their qScale tick counts, rounded half-up (monotone in
// the sample, so the largest tick is the quantized peak), and a row with a
// sample that does not quantize — negative, NaN, or 65536 ticks or more —
// is slowRow. ids is retained until the next Pack; the set must not change
// while p is queried.
func (ps *ProfileSet) Pack(p *Packed, ids []int, fast bool) {
	s := ps.samples
	p.ps, p.ids, p.s, p.fast = ps, ids, s, fast
	// Records are padded to whole 64-byte lines, so a partner's samples
	// span as few lines as possible.
	p.stride = (s + 1 + 7) &^ 7
	p.rec = slices.Grow(p.rec[:0], len(ids)*p.stride)[:len(ids)*p.stride]
	for i, id := range ids {
		r := p.rec[i*p.stride : i*p.stride+p.stride]
		if !ps.Has(id) {
			r[0] = math.Inf(-1)
			continue
		}
		row := ps.Profile(id)
		switch {
		case fast:
			r[0] = quantize(r[1:s+1], row)
		case cleanRow(row):
			r[0] = ps.peaks[id]
			copy(r[1:], row)
		default:
			r[0] = slowRow
		}
	}
}

// quantize writes row's tick counts to q and returns the tick peak, or
// slowRow when a sample does not quantize.
func quantize(q, row []float64) float64 {
	var peak float64
	for t, v := range row {
		x := v*qScale + 0.5
		// The negated form also rejects NaN samples, whose uint16
		// conversion would be unspecified.
		if !(v >= 0 && x < 65536) {
			return slowRow
		}
		q[t] = float64(uint16(x))
		peak = max(peak, q[t])
	}
	return peak
}

// CPUCorrInto fills dst[k] with the CPU-load correlation of ids[i] and
// ids[js[k]] for the ids of the last Pack.
//
// Both layouts run one scan. Like CPUCorr it reads every sample, but over
// clean records (see cleanRow) it takes the combined peak as a
// branch-free max of bit patterns (simd.PeakCorr, an AVX2 kernel where the
// CPU has one), so no pair pays a data-dependent branch the CPU cannot
// predict. Pairs with a slow point go through CPUCorr.
//
// Over an exact table dst[k] equals CPUCorr bit for bit. Over a fast table
// it is within FastEps of CPUCorr: tick sums and their max are exact in
// float64, so the only error is the ±1-tick rounding of numerator and
// denominator. Pairs whose tick peaks sum under qMinDen take CPUCorr.
func (p *Packed) CPUCorrInto(dst []float64, i int, js []int32) {
	p.cpuCorrInto(dst, i, js, simd.PeakCorr)
}

// cpuCorrInto is CPUCorrInto with the table's scan passed in:
// simd.PeakCorr, or its Go oracle in tests.
func (p *Packed) cpuCorrInto(dst []float64, i int, js []int32, scan func(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int) {
	s, w := p.s, p.stride
	ra := p.rec[i*w : i*w+w]
	if ra[0] == slowRow {
		for k, j := range js {
			dst[k] = p.ps.CPUCorr(p.ids[i], p.ids[j])
		}
		return
	}
	for k := 0; k < len(js); k++ {
		k += scan(dst[k:], ra[1:s+1], ra[0], p.rec, w, js[k:])
		if k < len(js) {
			dst[k] = p.ps.CPUCorr(p.ids[i], p.ids[js[k]])
		}
	}
	// A pair whose tick peaks sum under qMinDen, where one tick is a large
	// share of the peak, takes CPUCorr. Tick peaks are never negative, so
	// only a near-idle anchor has such partners; a missing partner's 0.5
	// from the scan is already CPUCorr's.
	if p.fast && ra[0] < qMinDen {
		for k, j := range js {
			if ra[0]+p.rec[int(j)*w] < qMinDen {
				dst[k] = p.ps.CPUCorr(p.ids[i], p.ids[j])
			}
		}
	}
}
