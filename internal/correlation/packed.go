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
// An exact table holds n records of (S+1 rounded up to 8) float64s: 128 B
// per point at the default 12 samples (1.5 MiB at 12.6k points). A fast
// table holds the same rows quantized to qScale ticks, n records of (S+2
// rounded up to 16) uint16s: 32 B per point at 12 samples.
type Packed struct {
	ps     *ProfileSet
	ids    []int
	s      int // samples per row
	fast   bool
	stride int       // record length: peak, samples, padding
	rec    []float64 // exact: per point, peak (or slowRow), then the s samples
	q      []uint16  // fast: per point, the int32 tick peak (or qSlow) in two lanes, then s ticks
}

// Record markers in the peak slot. Real peaks are never negative (Add
// takes the max from 0), so the markers cannot collide. slowRow marks a
// point whose pairs take ProfileSet.CPUCorr because its row is odd-length
// or holds a sample the packed kernel's integer max cannot order (see
// cleanSample). A point without a profile gets peak -Inf: every pair with
// it then has a non-positive (or NaN) peak sum and takes the neutral 0.5,
// as CPUCorr answers, without a branch of its own (whatever its record's
// samples hold is scanned and discarded).
const slowRow = simd.SlowRow

// cleanSample reports whether v is +0, positive or +Inf. Sums of such
// samples are never NaN and never carry the sign bit, so their IEEE bit
// patterns order exactly as their values — which lets the packed kernel take
// the combined peak with branch-free integer maxima.
func cleanSample(v float64) bool {
	return math.Float64bits(v) <= math.Float64bits(math.Inf(1))
}

// Pack lays out ids' rows in p, point i holding ids[i]'s row, reusing p's
// backing arrays: float records for the exact kernel or, with fast, tick
// records for the quantized one (see CPUCorrInto). ids is retained until
// the next Pack; the set must not change while p is queried.
func (ps *ProfileSet) Pack(p *Packed, ids []int, fast bool) {
	s := ps.samples
	p.ps, p.ids, p.s, p.fast = ps, ids, s, fast
	if fast {
		ps.packTicks(p)
		return
	}
	// Records are padded to whole 64-byte lines, so a partner's samples
	// span as few lines as possible.
	p.stride = (s + 1 + 7) &^ 7
	p.rec = slices.Grow(p.rec[:0], len(ids)*p.stride)[:len(ids)*p.stride]
	for i, id := range ids {
		r := p.rec[i*p.stride : i*p.stride+p.stride]
		r[0] = slowRow
		if !ps.Has(id) {
			r[0] = math.Inf(-1)
			continue
		}
		if s <= 0 || ps.off[id] < 0 {
			continue
		}
		off := int(ps.off[id])
		row := ps.arena[off : off+s]
		clean := true
		for _, v := range row {
			clean = clean && cleanSample(v)
		}
		if clean {
			r[0] = ps.peaks[id]
			copy(r[1:], row)
		}
	}
}

// qSlow is the tick-peak marker of a point whose pairs take CPUCorr: its
// row is missing or odd-length, or holds a negative, NaN or >16.0 sample
// (past the uint16 range). Any peak sum with it is below qMinDen, so the
// quantized kernel's denominator test catches both fallbacks at once.
const qSlow = -1 << 16

// packTicks fills p's fast records. Samples are rounded half-up to qScale
// ticks — monotone in the sample value, so the row's largest tick is its
// quantized peak, stored as an int32 across the record's first two lanes.
// Records are padded to whole 32-byte vectors of sixteen lanes.
func (ps *ProfileSet) packTicks(p *Packed) {
	s := ps.samples
	p.stride = (s + 2 + 15) &^ 15
	p.q = slices.Grow(p.q[:0], len(p.ids)*p.stride)[:len(p.ids)*p.stride]
	for i, id := range p.ids {
		r := p.q[i*p.stride : i*p.stride+p.stride]
		peak := int32(qSlow)
		if ps.Has(id) && ps.off[id] >= 0 {
			peak = 0
			off := int(ps.off[id])
			for t, v := range ps.arena[off : off+s] {
				q := v*qScale + 0.5
				// The negated form also rejects NaN samples, whose uint16
				// conversion would be unspecified.
				if !(v >= 0 && q < 65536) {
					peak = qSlow
					break
				}
				r[2+t] = uint16(q)
				peak = max(peak, int32(r[2+t]))
			}
		}
		r[0], r[1] = uint16(peak), uint16(peak>>16)
	}
}

// tickPeak reads a fast record's int32 peak from its first two lanes.
func tickPeak(r []uint16) int32 { return int32(uint32(r[0]) | uint32(r[1])<<16) }

// CPUCorrInto fills dst[k] with the CPU-load correlation of ids[i] and
// ids[js[k]] for the ids of the last Pack.
//
// Over an exact table it equals CPUCorr bit for bit. Like CPUCorr it scans
// every sample, but over clean records (see cleanSample) it takes the
// combined peak as a branch-free max of bit patterns (simd.PeakCorr, an AVX2
// kernel where the CPU has one), so no pair pays a data-dependent branch
// the CPU cannot predict. Pairs with a slow point go through CPUCorr.
//
// Over a fast table dst[k] is within FastEps of CPUCorr: the combined peak
// is an exact integer max over the ticks, so the only error is the ±1-tick
// rounding of numerator and denominator. Pairs with a qSlow point or a
// tick peak sum under qMinDen take CPUCorr.
func (p *Packed) CPUCorrInto(dst []float64, i int, js []int32) {
	p.cpuCorrInto(dst, i, js, simd.PeakCorr)
}

// cpuCorrInto is CPUCorrInto with the exact table's scan passed in:
// simd.PeakCorr, or its Go oracle in tests.
func (p *Packed) cpuCorrInto(dst []float64, i int, js []int32, scan func(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int) {
	if p.fast {
		p.ticksInto(dst, i, js)
		return
	}
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
}

// ticksInto is CPUCorrInto over a fast table: max_t(qa[t]+qb[t]) over the
// tick peak sum, one full scan per pair.
func (p *Packed) ticksInto(dst []float64, i int, js []int32) {
	s, w := p.s, p.stride
	ra := p.q[i*w : i*w+w]
	peakA := tickPeak(ra)
	a := ra[2 : 2+s]
	for k, j := range js {
		rb := p.q[int(j)*w : int(j)*w+w]
		den := peakA + tickPeak(rb)
		if den < qMinDen {
			dst[k] = p.ps.CPUCorr(p.ids[i], p.ids[j])
			continue
		}
		b := rb[2 : 2+len(a)]
		var m0, m1, m2, m3 uint32
		t := 0
		for ; t+3 < len(a); t += 4 {
			m0 = max(m0, uint32(a[t])+uint32(b[t]))
			m1 = max(m1, uint32(a[t+1])+uint32(b[t+1]))
			m2 = max(m2, uint32(a[t+2])+uint32(b[t+2]))
			m3 = max(m3, uint32(a[t+3])+uint32(b[t+3]))
		}
		for ; t < len(a); t++ {
			m0 = max(m0, uint32(a[t])+uint32(b[t]))
		}
		dst[k] = clampCorr(float64(max(m0, m1, m2, m3)) / float64(den))
	}
}
