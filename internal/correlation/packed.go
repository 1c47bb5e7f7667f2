package correlation

import "math"

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
// point at the default 12 samples (1.5 MiB at 12.6k points), and at most
// 512 B per point (see packedMaxSamples); above that it holds one float64
// per point.
type Packed struct {
	ps     *ProfileSet
	ids    []int
	s      int       // samples per row
	stride int       // record length: peak, samples, padding
	rec    []float64 // per point: peak (or slowRow), then the s samples
}

// Record markers in the peak slot. Real peaks are never negative (Add
// takes the max from 0), so the markers cannot collide. slowRow marks a
// point whose pairs take ProfileSet.CPUCorr because its row is odd-length
// or holds a sample the packed kernel's integer max cannot order (see
// cleanSample). A point without a profile gets peak -Inf: every pair with
// it then has a non-positive (or NaN) peak sum and takes the neutral 0.5,
// as CPUCorr answers, without a branch of its own (whatever its record's
// samples hold is scanned and discarded).
const slowRow = -1

// packedMaxSamples is the widest row Pack lays out. The kernel scans every
// sample, while CPUCorr's pruned walk stops after a few; on random partner
// order the full scan wins while a record spans at most 8 cache lines
// (BenchmarkPackedCPUCorrInto: 1.3-1.6x at 48 and 56 samples) and stops
// winning from 64 samples on. Wider sets mark every point slowRow, so every
// pair takes CPUCorr.
const packedMaxSamples = 56

// cleanSample reports whether v is +0, positive or +Inf. Sums of such
// samples are never NaN and never carry the sign bit, so their IEEE bit
// patterns order exactly as their values — which lets the packed kernel take
// the combined peak with branch-free integer maxima.
func cleanSample(v float64) bool {
	return math.Float64bits(v) <= math.Float64bits(math.Inf(1))
}

// Pack lays out ids' rows in p, point i holding ids[i]'s row, reusing p's
// backing arrays. ids is retained until the next Pack; the set must not
// change while p is queried.
func (ps *ProfileSet) Pack(p *Packed, ids []int) {
	s := ps.samples
	p.ps, p.ids, p.s = ps, ids, s
	// Records are padded to whole 64-byte lines, so a partner's samples
	// span as few lines as possible. Rows too wide to scan get a bare
	// slowRow marker.
	wide := s > packedMaxSamples
	p.stride = (s + 1 + 7) &^ 7
	if wide {
		p.stride = 1
	}
	if n := len(ids) * p.stride; cap(p.rec) < n {
		p.rec = make([]float64, n)
	} else {
		p.rec = p.rec[:n]
	}
	for i, id := range ids {
		r := p.rec[i*p.stride : i*p.stride+p.stride]
		r[0] = slowRow
		if wide {
			continue
		}
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

// CPUCorrInto fills dst[k] with CPUCorr(ids[i], ids[js[k]]) for the ids of
// the last Pack, bit for bit. Unlike CPUCorr's pruned walk it scans every
// sample: the combined peak is the exact maximum either way, and over clean
// records (see cleanSample) a max of bit patterns is branch-free, so a full
// scan of S sequential samples costs less than a few pruned steps whose
// data-dependent exits the CPU cannot predict. Pairs with a slow point go
// through CPUCorr.
func (p *Packed) CPUCorrInto(dst []float64, i int, js []int32) {
	s, w := p.s, p.stride
	ra := p.rec[i*w : i*w+w]
	peakA := ra[0]
	if peakA == slowRow {
		for k, j := range js {
			dst[k] = p.ps.CPUCorr(p.ids[i], p.ids[j])
		}
		return
	}
	a := ra[1 : s+1]
	// Partner records are loaded one pair ahead: the next partner's peak is
	// read before this pair's scan, so its cache miss overlaps the scan
	// instead of following it.
	var next float64
	if len(js) > 0 {
		next = p.rec[int(js[0])*w]
	}
	for k, j := range js {
		peakB := next
		if k+1 < len(js) {
			next = p.rec[int(js[k+1])*w]
		}
		if peakB == slowRow {
			dst[k] = p.ps.CPUCorr(p.ids[i], p.ids[j])
			continue
		}
		b := p.rec[int(j)*w+1 : int(j)*w+1+s]
		b = b[:len(a)]
		// Four independent maxima (max is order-insensitive), starting
		// from +0 like PeakCoincidence's.
		var m0, m1, m2, m3 uint64
		t := 0
		for ; t+3 < len(a); t += 4 {
			m0 = max(m0, math.Float64bits(a[t]+b[t]))
			m1 = max(m1, math.Float64bits(a[t+1]+b[t+1]))
			m2 = max(m2, math.Float64bits(a[t+2]+b[t+2]))
			m3 = max(m3, math.Float64bits(a[t+3]+b[t+3]))
		}
		for ; t < len(a); t++ {
			m0 = max(m0, math.Float64bits(a[t]+b[t]))
		}
		// The clamp and the neutral value select bit patterns, which the
		// compiler emits as conditional moves: which case a pair lands in
		// is data the branch predictor cannot learn. Other kernels also
		// clamp at 1, but over clean rows every sum is at most
		// fl(peakA+peakB) = den (rounded addition is monotone), so c never
		// exceeds 1 here.
		den := peakA + peakB
		c := math.Float64frombits(max(m0, m1, m2, m3)) / den
		bits := math.Float64bits(c)
		if c < 1e-9 {
			bits = tinyBits
		}
		if !(den > 0) {
			// A missing profile, or both rows all zero.
			bits = halfBits
		}
		dst[k] = math.Float64frombits(bits)
	}
}

// Bit patterns of the packed kernel's clamp bound and neutral value: 1e-9
// and 0.5. Constants, so the selects compile to conditional moves.
const (
	tinyBits = 0x3e112e0be826d695
	halfBits = 0x3fe0000000000000
)
