// Package correlation computes the two VM relationships the placement
// algorithm trades off (paper Sect. IV-B, Eq. 5):
//
//   - CPU-load correlation Corr_cpu in (0, 1] — "computed as a worst-case
//     peak CPU utilization when the peaks of two VMs coincide during the
//     last time slot". Two VMs whose peaks land on the same sample score 1;
//     perfectly staggered peaks approach 1/2 (the combined peak is then just
//     the larger individual peak). It feeds the repulsion force.
//   - Data correlation Corr_data in [-1, 0) — the (directed) amount of data
//     two VMs exchange, normalized against a reference volume. It feeds the
//     attraction force; zero-volume pairs have no attraction at all (0).
//
// The package also offers classic Pearson correlation for analysis and the
// ProfileSet container the controllers use to evaluate many pairwise
// correlations against per-slot downsampled utilization profiles.
package correlation

import (
	"math"

	"geovmp/internal/par"
	"geovmp/internal/units"
)

// PeakCoincidence returns the paper's CPU-load correlation of two
// utilization profiles sampled over the same slot: the combined worst-case
// peak normalized by the sum of the individual peaks,
//
//	max_t(a[t]+b[t]) / (max_t a[t] + max_t b[t])  in (0, 1].
//
// Both profiles idle (zero peaks) yields the neutral value 0.5. Profiles
// must have equal length; unequal lengths compare the common prefix.
func PeakCoincidence(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0.5
	}
	var peakA, peakB, peakAB float64
	for t := 0; t < n; t++ {
		if a[t] > peakA {
			peakA = a[t]
		}
		if b[t] > peakB {
			peakB = b[t]
		}
		if s := a[t] + b[t]; s > peakAB {
			peakAB = s
		}
	}
	den := peakA + peakB
	if den <= 0 {
		return 0.5
	}
	c := peakAB / den
	// Floor slightly above zero to respect the documented (0,1] range.
	if c < 1e-9 {
		c = 1e-9
	}
	if c > 1 {
		c = 1
	}
	return c
}

// CombinedPeak returns max_t of the element-wise sum of the profiles — the
// worst-case simultaneous demand. Server packers use it as the
// correlation-aware capacity check: packing by CombinedPeak instead of the
// sum of individual peaks is exactly what lets anti-correlated VMs share a
// server.
func CombinedPeak(profiles [][]float64) float64 {
	if len(profiles) == 0 {
		return 0
	}
	n := len(profiles[0])
	for _, p := range profiles {
		if len(p) < n {
			n = len(p)
		}
	}
	var peak float64
	for t := 0; t < n; t++ {
		var s float64
		for _, p := range profiles {
			s += p[t]
		}
		if s > peak {
			peak = s
		}
	}
	return peak
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// profiles, or 0 when either has zero variance or the profiles are empty.
func Pearson(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for t := 0; t < n; t++ {
		ma += a[t]
		mb += b[t]
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for t := 0; t < n; t++ {
		da := a[t] - ma
		db := b[t] - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// NormalizeData maps a directed transfer volume to the attraction-force
// range: 0 for no traffic, approaching -1 as vol reaches ref and clamping
// at -1 beyond it. ref must be positive; non-positive refs yield 0.
func NormalizeData(vol, ref units.DataSize) float64 {
	if vol <= 0 || ref <= 0 {
		return 0
	}
	f := float64(vol) / float64(ref)
	if f > 1 {
		f = 1
	}
	return -f
}

// ProfileSet holds per-VM downsampled utilization profiles for one slot and
// answers pairwise queries. It is slice-backed and indexed by the workload's
// compact VM ids, so the O(V^2) pairwise queries of the clustering phase are
// array loads instead of map lookups — and standard-length profiles are
// copied into one contiguous arena in insertion order, so the pairwise sweep
// touches a few cache-resident kilobytes instead of rows scattered across
// the workload's tables. Build one per slot via Add (or Reset and refill to
// reuse the backing arrays across slots), then query.
type ProfileSet struct {
	samples int
	arena   []float64   // contiguous samples-length rows, insertion order
	off     []int32     // indexed by id: arena offset, or absentRow/oddRow-k
	odd     [][]float64 // rows whose length differs from samples (retained)
	peaks   []float64   // indexed by id; valid only where a row exists
	ids     []int       // ids currently registered
	idPos   []int32     // indexed by id: position in ids, valid where a row exists
	// freeStd and freeOdd hold storage released by Remove (arena row
	// offsets and odd-table slots respectively), reused LIFO by later Adds
	// so a long-running arrival/departure stream stays allocation-free and
	// the arena does not grow past the peak population.
	freeStd []int32
	freeOdd []int32
	// ord mirrors the arena at one uint16 per sample: for every built row,
	// the sample indices sorted by descending utilization — the walk order
	// of the pruned peak-coincidence kernel. ordVal holds the utilization
	// at each ord entry, so the kernel's own-profile reads are sequential
	// instead of gathered. Built on demand by EnsureOrders;
	// len(ord)/samples rows are valid. Adds that land inside the built
	// region (overwrites and free-list reuse) re-sort their row inline, so
	// the orders stay exact across any Add/Remove sequence.
	ord    []uint16
	ordVal []float64
	// Fast-math state (see SetFastMath): when enabled, EnsureOrders also
	// quantizes every standard arena row to qScale fixed-point ticks —
	// qrow mirrors the arena in sample order, qord mirrors ordVal in
	// descending order, and qok flags the rows whose samples all fit the
	// uint16 range. The quantized tables are 4x denser than the float
	// arena, which is what the cache-blocked CPUCorrFastInto kernel walks.
	fastMath bool
	qrow     []uint16
	qord     []uint16
	qok      []bool
}

// Fixed-point parameters of the fast peak-coincidence kernel.
const (
	// qScale is the tick size: 4096 ticks per unit of utilization, so a
	// uint16 covers utilizations up to 16.0 with 2.4e-4 resolution. Rows
	// holding negative or >16.0 samples are flagged unquantizable and fall
	// back to the exact kernel pair by pair.
	qScale = 4096
	// qMinDen is the minimum quantized peak sum (numerator of Eq. 5's
	// denominator) the fast kernel accepts: 512 ticks = 1/8 of one core.
	// Near-idle pairs below it fall back to the exact kernel, which caps
	// the relative quantization error (see FastEps).
	qMinDen = 512
)

// FastEps bounds the absolute error of the fast kernel against the exact
// one, per pair: numerator and denominator are each within ±1 tick of the
// scaled exact values, the denominator is at least qMinDen ticks, and the
// ratio is <= 1, so |fast - exact| <= 2/qMinDen. The clamps to [1e-9, 1]
// are shared and 1-Lipschitz, so they never widen the gap.
const FastEps = 2.0 / qMinDen

const (
	absentRow = int32(-1)
	oddRow    = int32(-2) // off = oddRow - k addresses odd[k]
)

// NewProfileSet creates a set expecting profiles of the given sample count.
func NewProfileSet(samples int) *ProfileSet {
	return &ProfileSet{samples: samples}
}

// Samples returns the per-profile sample count.
func (ps *ProfileSet) Samples() int { return ps.samples }

// Reset forgets every registered profile while keeping the backing arrays,
// so a per-slot rebuild allocates nothing in steady state.
func (ps *ProfileSet) Reset() {
	for _, id := range ps.ids {
		ps.off[id] = absentRow
		ps.peaks[id] = 0
	}
	ps.ids = ps.ids[:0]
	ps.arena = ps.arena[:0]
	ps.odd = ps.odd[:0]
	ps.ord = ps.ord[:0]
	ps.ordVal = ps.ordVal[:0]
	ps.qrow = ps.qrow[:0]
	ps.qord = ps.qord[:0]
	ps.qok = ps.qok[:0]
	ps.freeStd = ps.freeStd[:0]
	ps.freeOdd = ps.freeOdd[:0]
}

// Len returns the number of registered profiles.
func (ps *ProfileSet) Len() int { return len(ps.ids) }

// Add registers a VM's profile. Rows of the expected sample count are
// copied into the set's arena; other lengths are retained as-is and must
// not be mutated afterwards. Adding an id that already has a profile
// replaces it (the streaming controller's telemetry-refresh path), reusing
// the old storage where the lengths allow. Any Add/Remove sequence leaves
// queries equal to a set built from scratch over the surviving profiles.
func (ps *ProfileSet) Add(id int, prof []float64) {
	if id < 0 {
		return
	}
	if id >= len(ps.off) {
		ps.grow(id + 1)
	}
	prev := ps.off[id]
	if prev == absentRow {
		ps.idPos[id] = int32(len(ps.ids))
		ps.ids = append(ps.ids, id)
	}
	if len(prof) == ps.samples {
		off := absentRow
		if prev >= 0 {
			off = prev // overwrite the existing arena row in place
		} else {
			if prev <= oddRow {
				ps.freeStorage(prev)
			}
			if n := len(ps.freeStd); n > 0 {
				off = ps.freeStd[n-1]
				ps.freeStd = ps.freeStd[:n-1]
			}
		}
		if off >= 0 {
			copy(ps.arena[off:int(off)+ps.samples], prof)
			// The reused row may sit inside the already-built order region;
			// re-sorting it inline keeps the pruned kernel exact.
			ps.rebuildOrder(off)
		} else {
			off = int32(len(ps.arena))
			ps.arena = append(ps.arena, prof...)
		}
		ps.off[id] = off
	} else {
		if prev != absentRow {
			ps.freeStorage(prev)
		}
		if n := len(ps.freeOdd); n > 0 {
			k := ps.freeOdd[n-1]
			ps.freeOdd = ps.freeOdd[:n-1]
			ps.odd[k] = prof
			ps.off[id] = oddRow - k
		} else {
			ps.off[id] = oddRow - int32(len(ps.odd))
			ps.odd = append(ps.odd, prof)
		}
	}
	var peak float64
	for _, u := range prof {
		if u > peak {
			peak = u
		}
	}
	ps.peaks[id] = peak
}

// Remove forgets id's profile, releasing its storage to the free lists for
// later Adds — the departure amendment of the streaming controller, which
// adjusts the set per VM arrival/departure instead of rebuilding the world.
// Removing an absent id is a no-op.
func (ps *ProfileSet) Remove(id int) {
	if id < 0 || id >= len(ps.off) || ps.off[id] == absentRow {
		return
	}
	ps.freeStorage(ps.off[id])
	ps.off[id] = absentRow
	ps.peaks[id] = 0
	p := ps.idPos[id]
	last := ps.ids[len(ps.ids)-1]
	ps.ids[p] = last
	ps.idPos[last] = p
	ps.ids = ps.ids[:len(ps.ids)-1]
}

// freeStorage returns a row's backing storage to the matching free list.
// Freed arena rows keep stale floats (and possibly stale orders) until
// reused, at which point Add overwrites both; no query ever resolves to a
// freed row because no off entry points at it.
func (ps *ProfileSet) freeStorage(off int32) {
	if off >= 0 {
		ps.freeStd = append(ps.freeStd, off)
		return
	}
	k := oddRow - off
	ps.odd[k] = nil
	ps.freeOdd = append(ps.freeOdd, k)
}

// rebuildOrder re-sorts the descending-utilization order of the arena row
// at off, if orders have been built that far (otherwise EnsureOrders will
// cover it from the current arena contents later).
func (ps *ProfileSet) rebuildOrder(off int32) {
	s := ps.samples
	end := int(off) + s
	if s <= 0 || end > len(ps.ord) {
		return
	}
	sortRowDesc(ps.arena[off:end], ps.ord[off:end], ps.ordVal[off:end])
	if ps.fastMath && end <= len(ps.qrow) {
		ps.quantizeRow(off)
	}
}

func (ps *ProfileSet) grow(n int) {
	// Geometric growth: ids arrive in ascending order across a run, so
	// exact-fit growth would copy the tables O(V) times.
	if d := 2 * len(ps.off); n < d {
		n = d
	}
	off := make([]int32, n)
	copy(off, ps.off)
	for i := len(ps.off); i < n; i++ {
		off[i] = absentRow
	}
	ps.off = off
	peaks := make([]float64, n)
	copy(peaks, ps.peaks)
	ps.peaks = peaks
	idPos := make([]int32, n)
	copy(idPos, ps.idPos)
	ps.idPos = idPos
}

// Has reports whether a profile for id exists.
func (ps *ProfileSet) Has(id int) bool {
	return id >= 0 && id < len(ps.off) && ps.off[id] != absentRow
}

// Profile returns the registered profile for id (nil when absent). The
// returned slice aliases the set's arena and is only valid until the next
// Reset.
func (ps *ProfileSet) Profile(id int) []float64 {
	if id < 0 || id >= len(ps.off) {
		return nil
	}
	off := ps.off[id]
	switch {
	case off == absentRow:
		return nil
	case off <= oddRow:
		return ps.odd[oddRow-off]
	}
	return ps.arena[off : int(off)+ps.samples]
}

// Peak returns the registered peak for id (0 when absent).
func (ps *ProfileSet) Peak(id int) float64 {
	if id < 0 || id >= len(ps.off) {
		return 0
	}
	return ps.peaks[id]
}

// EnsureOrders precomputes, for every standard-length profile registered so
// far, its descending-by-utilization sample order — the walk order of the
// pruned peak-coincidence kernel (see CPUCorr). The build is incremental
// (only rows added since the last call are sorted), costs O(S log S) per
// profile once per slot, and is sharded over rows via workers (nil runs
// serially).
//
// Call it after the slot's Adds and before querying from multiple
// goroutines: it is the only mutating step on the query side, so once it
// returns, CPUCorr and Pack are safe for any number of concurrent
// readers. Queries without built orders fall back to the unpruned kernel
// with identical results.
func (ps *ProfileSet) EnsureOrders(workers *par.Budget) {
	s := ps.samples
	if s <= 0 || s > math.MaxUint16 {
		return
	}
	rows := len(ps.arena) / s
	built := len(ps.ord) / s
	if built >= rows {
		return
	}
	need := rows * s
	if cap(ps.ord) < need {
		grown := make([]uint16, need)
		copy(grown, ps.ord)
		ps.ord = grown
		vals := make([]float64, need)
		copy(vals, ps.ordVal)
		ps.ordVal = vals
	} else {
		ps.ord = ps.ord[:need]
		ps.ordVal = ps.ordVal[:need]
	}
	if ps.fastMath {
		ps.ensureQuantCap(rows, need)
	}
	const rowGrain = 256
	par.For(workers, rows-built, rowGrain, func(lo, hi int) {
		for r := built + lo; r < built+hi; r++ {
			sortRowDesc(ps.arena[r*s:(r+1)*s], ps.ord[r*s:(r+1)*s], ps.ordVal[r*s:(r+1)*s])
			if ps.fastMath {
				ps.quantizeRow(int32(r * s))
			}
		}
	})
}

// SetFastMath toggles the quantized fast-math tables. Enabling quantizes
// every row whose sample order is already built and makes EnsureOrders
// quantize new rows alongside their orders; disabling drops the tables.
// Toggling never affects CPUCorr or Packed results — only the opt-in
// CPUCorrFastInto query reads the quantized state, and without it that
// query degrades to the exact kernels.
func (ps *ProfileSet) SetFastMath(on bool) {
	if ps.fastMath == on {
		return
	}
	ps.fastMath = on
	if !on {
		ps.qrow = ps.qrow[:0]
		ps.qord = ps.qord[:0]
		ps.qok = ps.qok[:0]
		return
	}
	s := ps.samples
	if s <= 0 {
		return
	}
	rows := len(ps.ord) / s
	ps.ensureQuantCap(rows, rows*s)
	for r := 0; r < rows; r++ {
		ps.quantizeRow(int32(r * s))
	}
}

// ensureQuantCap sizes the quantized tables to cover rows arena rows.
func (ps *ProfileSet) ensureQuantCap(rows, need int) {
	if cap(ps.qrow) < need {
		qr := make([]uint16, need)
		copy(qr, ps.qrow)
		ps.qrow = qr
		qo := make([]uint16, need)
		copy(qo, ps.qord)
		ps.qord = qo
	} else {
		ps.qrow = ps.qrow[:need]
		ps.qord = ps.qord[:need]
	}
	if cap(ps.qok) < rows {
		qk := make([]bool, rows)
		copy(qk, ps.qok)
		ps.qok = qk
	} else {
		ps.qok = ps.qok[:rows]
	}
}

// quantizeRow fills the quantized mirrors of the arena row at off from the
// float row and its (already built) sample order. Rounding is half-up —
// monotone in the sample value, so the quantized descending order is the
// float descending order and qord[0] is the row's quantized peak. Rows with
// negative samples or samples past the uint16 range (utilization > 16.0)
// are flagged unquantizable and keep taking the exact kernel.
func (ps *ProfileSet) quantizeRow(off int32) {
	s := ps.samples
	r := int(off) / s
	row := ps.arena[off : int(off)+s]
	ord := ps.ord[off : int(off)+s]
	qr := ps.qrow[off : int(off)+s]
	qo := ps.qord[off : int(off)+s]
	for t, v := range row {
		q := v*qScale + 0.5
		// The negated form also rejects NaN samples, whose uint16
		// conversion would be unspecified.
		if !(v >= 0 && q < 65536) {
			ps.qok[r] = false
			return
		}
		qr[t] = uint16(q)
	}
	for k, t := range ord {
		qo[k] = qr[t]
	}
	ps.qok[r] = true
}

// sortRowDesc fills ord with row's sample indices sorted by descending
// utilization and vals with the utilizations in that order. Insertion sort,
// descending by value; the strict comparison keeps equal samples in
// ascending index order (stable), so the order — and every downstream
// result — is deterministic. NaN samples sort last: they never enter a
// combined peak, and keeping them out of the descending prefix keeps the
// pruned kernel's early-exit bound exact.
func sortRowDesc(row []float64, ord []uint16, vals []float64) {
	s := len(row)
	for i := range ord {
		ord[i] = uint16(i)
	}
	for i := 1; i < s; i++ {
		t := ord[i]
		v := row[t]
		j := i - 1
		for j >= 0 && sortsAfter(row[ord[j]], v) {
			ord[j+1] = ord[j]
			j--
		}
		ord[j+1] = t
	}
	for i, t := range ord {
		vals[i] = row[t]
	}
}

// sortsAfter reports whether sample u belongs strictly after sample v in a
// descending, NaN-last order.
func sortsAfter(u, v float64) bool {
	return u < v || math.IsNaN(u) && !math.IsNaN(v)
}

// orderAt returns the descending-utilization sample order of the arena row
// at offset off and the utilizations in that order, or nils when orders
// have not been built that far.
func (ps *ProfileSet) orderAt(off int32) ([]uint16, []float64) {
	end := int(off) + ps.samples
	if end > len(ps.ord) {
		return nil, nil
	}
	return ps.ord[off:end], ps.ordVal[off:end]
}

// CPUCorr returns the peak-coincidence CPU-load correlation of two
// registered VMs; pairs with a missing profile return the neutral 0.5.
// Equal-length profiles — the only shape the simulator produces — reuse the
// peaks computed at Add time, and after EnsureOrders the pair is evaluated
// by the pruned kernel, which walks the samples in descending order of VM
// i's utilization and stops at the exact bound a[t]+peakB <= best. Results
// are identical to PeakCoincidence in every case.
func (ps *ProfileSet) CPUCorr(i, j int) float64 {
	a := ps.Profile(i)
	b := ps.Profile(j)
	if a == nil || b == nil {
		return 0.5
	}
	if len(a) != len(b) {
		return PeakCoincidence(a, b)
	}
	if off := ps.off[i]; off >= 0 {
		if ord, av := ps.orderAt(off); ord != nil {
			return peakCoincidenceOrdered(b, ord, av, ps.peaks[i], ps.peaks[j])
		}
	}
	return peakCoincidenceKnown(a, b, ps.peaks[i], ps.peaks[j])
}

// CPUCorrFast is the scalar form of CPUCorrFastInto.
func (ps *ProfileSet) CPUCorrFast(i, j int) float64 {
	var one [1]float64
	js := [1]int{j}
	ps.CPUCorrFastInto(one[:], i, js[:])
	return one[0]
}

// CPUCorrFastInto is the quantized, cache-blocked bulk variant of CPUCorr:
// dst[k] approximates CPUCorr(i, js[k]) within FastEps. It walks VM i's
// samples in the same descending order as the exact pruned kernel, but over
// the uint16 fixed-point tables built by EnsureOrders under SetFastMath —
// 4x denser rows, integer compares, and a strip-blocked early exit (the
// exact bound a[t]+peakB <= best checked once per strip of 8, conservative
// by monotonicity of the descending walk, so stopping is never wrong).
//
// Pairs the quantized tables cannot represent keep the exact result: odd
// or missing rows, rows flagged unquantizable (negative or >16.0 samples),
// pairs whose quantized peak sum is under qMinDen ticks, and every query
// before SetFastMath(true)/EnsureOrders. The error-budget property test in
// fastmath_test.go holds this contract over adversarial profiles.
func (ps *ProfileSet) CPUCorrFastInto(dst []float64, i int, js []int) {
	s := ps.samples
	var offA = absentRow
	if i >= 0 && i < len(ps.off) {
		offA = ps.off[i]
	}
	var ordA, qoA []uint16
	if ps.fastMath && offA >= 0 && s > 0 {
		if end := int(offA) + s; end <= len(ps.qord) && ps.qok[int(offA)/s] {
			ordA = ps.ord[offA:end]
			qoA = ps.qord[offA:end]
		}
	}
	if ordA == nil {
		for k, j := range js {
			dst[k] = ps.CPUCorr(i, j)
		}
		return
	}
	qpA := int32(qoA[0])
	for k, j := range js {
		if j >= 0 && j < len(ps.off) {
			if offB := ps.off[j]; offB >= 0 {
				if endB := int(offB) + s; endB <= len(ps.qord) && ps.qok[int(offB)/s] {
					// Partner's quantized peak: the head of its own
					// descending order.
					den := qpA + int32(ps.qord[offB])
					if den >= qMinDen {
						dst[k] = fastPeakCoincidence(ps.qrow[offB:endB], ordA, qoA, den-qpA, den)
						continue
					}
				}
			}
		}
		dst[k] = ps.CPUCorr(i, j)
	}
}

// fastStrip is the blocking factor of the fast kernel's ordered walk: the
// early-exit bound is tested once per strip, and a strip of 8 uint16 loads
// spans one 16-byte vector lane pair, keeping the inner loop branch-light.
const fastStrip = 8

// fastPeakCoincidence is the quantized pruned kernel: qb is the partner row
// in sample order, ordA/qoA the anchor's descending sample order and
// quantized values, qpB the partner's quantized peak and den the quantized
// peak sum (>= qMinDen). The combined peak is an exact integer max over the
// quantized samples, so the only error versus the exact kernel is the ±1
// tick rounding of numerator and denominator — the FastEps budget.
func fastPeakCoincidence(qb []uint16, ordA, qoA []uint16, qpB, den int32) float64 {
	n := len(ordA)
	best := int32(-1)
	for st := 0; st < n; st += fastStrip {
		// Strip-level early exit: every unvisited anchor sample is
		// <= qoA[st], so no unvisited sum can beat best.
		if int32(qoA[st])+qpB <= best {
			break
		}
		end := st + fastStrip
		if end > n {
			end = n
		}
		for k := st; k < end; k++ {
			if sum := int32(qoA[k]) + int32(qb[ordA[k]]); sum > best {
				best = sum
			}
		}
	}
	c := float64(best) / float64(den)
	if c < 1e-9 {
		c = 1e-9
	}
	if c > 1 {
		c = 1
	}
	return c
}

// peakCoincidenceKnown is PeakCoincidence over equal-length profiles with
// the individual peaks already known. The element-wise max runs two
// independent chains (max is order-insensitive, so the result is
// unchanged): this kernel executes O(V^2) times per slot.
func peakCoincidenceKnown(a, b []float64, peakA, peakB float64) float64 {
	n := len(a)
	if n == 0 {
		return 0.5
	}
	b = b[:n]
	var p0, p1, p2, p3 float64
	t := 0
	for ; t+3 < n; t += 4 {
		if s := a[t] + b[t]; s > p0 {
			p0 = s
		}
		if s := a[t+1] + b[t+1]; s > p1 {
			p1 = s
		}
		if s := a[t+2] + b[t+2]; s > p2 {
			p2 = s
		}
		if s := a[t+3] + b[t+3]; s > p3 {
			p3 = s
		}
	}
	for ; t < n; t++ {
		if s := a[t] + b[t]; s > p0 {
			p0 = s
		}
	}
	if p1 > p0 {
		p0 = p1
	}
	if p3 > p2 {
		p2 = p3
	}
	peakAB := p0
	if p2 > peakAB {
		peakAB = p2
	}
	den := peakA + peakB
	if den <= 0 {
		return 0.5
	}
	c := peakAB / den
	if c < 1e-9 {
		c = 1e-9
	}
	if c > 1 {
		c = 1
	}
	return c
}

// peakCoincidenceOrdered is the pruned form of peakCoincidenceKnown: it
// walks the samples in descending order of a's utilization (ord and av,
// built by EnsureOrders: av[s] == a[ord[s]]) and stops at the exact
// early-exit bound
//
//	a[t] + peakB <= best  =>  stop:
//
// every unvisited sample of a is <= a[t], so no unvisited combined sample
// can exceed best, and best already is the final combined peak. (Exact in
// floating point too: rounded addition is monotone, so every unvisited
// candidate fl(a[t']+b[t']) <= fl(a[t]+peakB) <= best.) The combined peak
// is an exact max of the same a[t]+b[t] sums either way, so the result is
// bit-identical to peakCoincidenceKnown — but a typical pair touches a
// handful of samples instead of all S, which is what makes the O(V^2) pair
// sweep of the global phase subquadratic in sample touches in practice.
func peakCoincidenceOrdered(b []float64, ord []uint16, av []float64, peakA, peakB float64) float64 {
	den := peakA + peakB
	if den <= 0 {
		// Covers empty and all-zero profiles: the neutral value, exactly as
		// the unpruned kernels return.
		return 0.5
	}
	best := math.Inf(-1)
	for s, t := range ord {
		at := av[s]
		if at+peakB <= best {
			break
		}
		if sum := at + b[t]; sum > best {
			best = sum
		}
	}
	c := best / den
	if c < 1e-9 {
		c = 1e-9
	}
	if c > 1 {
		c = 1
	}
	return c
}

// Mean returns the average utilization of id's profile (0 when absent).
func (ps *ProfileSet) Mean(id int) float64 {
	p := ps.Profile(id)
	if len(p) == 0 {
		return 0
	}
	var sum float64
	for _, u := range p {
		sum += u
	}
	return sum / float64(len(p))
}

// DataMatrix is a sparse directed volume matrix, the container for a slot's
// inter-VM traffic. Rows are indexed by the workload's compact sender id and
// each row holds that sender's few receivers (communication degree is
// bounded by the service graph), so lookups are a short linear scan instead
// of a map probe and iteration order is deterministic.
type DataMatrix struct {
	rows  [][]volCell // indexed by from
	froms []int       // rows touched since the last Reset
	pairs int
	max   units.DataSize
}

type volCell struct {
	to  int
	vol units.DataSize
}

// NewDataMatrix returns an empty matrix.
func NewDataMatrix() *DataMatrix {
	return &DataMatrix{}
}

// Reset empties the matrix while keeping the backing arrays, so a per-slot
// rebuild allocates nothing in steady state.
func (m *DataMatrix) Reset() {
	for _, from := range m.froms {
		m.rows[from] = m.rows[from][:0]
	}
	m.froms = m.froms[:0]
	m.pairs = 0
	m.max = 0
}

// Add accumulates volume onto the directed pair (from, to).
func (m *DataMatrix) Add(from, to int, vol units.DataSize) {
	if vol <= 0 || from == to || from < 0 || to < 0 {
		return
	}
	if from >= len(m.rows) {
		n := from + 1
		if d := 2 * len(m.rows); n < d {
			n = d
		}
		rows := make([][]volCell, n)
		copy(rows, m.rows)
		m.rows = rows
	}
	row := m.rows[from]
	if len(row) == 0 {
		m.froms = append(m.froms, from)
	}
	for i := range row {
		if row[i].to == to {
			row[i].vol += vol
			if row[i].vol > m.max {
				m.max = row[i].vol
			}
			return
		}
	}
	m.rows[from] = append(row, volCell{to: to, vol: vol})
	m.pairs++
	if vol > m.max {
		m.max = vol
	}
}

// RemoveVM deletes every directed pair involving id — the departure
// amendment of the streaming controller. Surviving cells keep their
// insertion order, so iteration and every query match a matrix rebuilt from
// scratch by replaying the surviving adds in their original order. The
// high-water mark is rescanned only when a removed cell could have held it.
// Cost is O(total pairs); degree is bounded by the service graph, so that
// is linear in the fleet with a small constant. Removing an unknown id is a
// no-op.
func (m *DataMatrix) RemoveVM(id int) {
	if id < 0 {
		return
	}
	removed := false
	var removedMax units.DataSize
	for fi := 0; fi < len(m.froms); {
		from := m.froms[fi]
		row := m.rows[from]
		w := 0
		if from == id {
			// Sender row: drop wholesale.
			for _, c := range row {
				if c.vol > removedMax {
					removedMax = c.vol
				}
			}
			m.pairs -= len(row)
			removed = removed || len(row) > 0
		} else {
			// Receiver scan: order-preserving compaction.
			for _, c := range row {
				if c.to == id {
					if c.vol > removedMax {
						removedMax = c.vol
					}
					m.pairs--
					removed = true
					continue
				}
				row[w] = c
				w++
			}
		}
		m.rows[from] = row[:w]
		if w == 0 {
			// Emptied rows are dropped from froms so a later re-Add
			// registers the sender exactly once; froms order is not
			// observable, so the O(1) swap removal is fine.
			m.froms[fi] = m.froms[len(m.froms)-1]
			m.froms = m.froms[:len(m.froms)-1]
			continue
		}
		fi++
	}
	if removed && removedMax >= m.max {
		m.max = 0
		for _, from := range m.froms {
			for _, c := range m.rows[from] {
				if c.vol > m.max {
					m.max = c.vol
				}
			}
		}
	}
}

// Vol returns the directed volume from->to.
func (m *DataMatrix) Vol(from, to int) units.DataSize {
	if from < 0 || from >= len(m.rows) {
		return 0
	}
	for _, c := range m.rows[from] {
		if c.to == to {
			return c.vol
		}
	}
	return 0
}

// Max returns the largest directed volume seen, the natural normalization
// reference for attraction forces.
func (m *DataMatrix) Max() units.DataSize { return m.max }

// Mean returns the average non-zero directed volume (0 when empty). Force
// normalization against a multiple of the mean keeps attraction meaningful
// under heavy-tailed volume distributions, where normalizing by the maximum
// would flatten almost every pair to zero.
func (m *DataMatrix) Mean() units.DataSize {
	if m.pairs == 0 {
		return 0
	}
	var sum units.DataSize
	for _, row := range m.rows {
		for _, c := range row {
			sum += c.vol
		}
	}
	return units.DataSize(float64(sum) / float64(m.pairs))
}

// Len returns the number of non-zero directed pairs.
func (m *DataMatrix) Len() int { return m.pairs }

// Each calls fn for every non-zero directed pair, in deterministic order:
// ascending sender id, receivers in insertion order.
func (m *DataMatrix) Each(fn func(from, to int, vol units.DataSize)) {
	for from, row := range m.rows {
		for _, c := range row {
			fn(from, c.to, c.vol)
		}
	}
}

// TotalBetween sums vol(a->b)+vol(b->a) — the undirected exchange intensity
// used by graph-partitioning baselines.
func (m *DataMatrix) TotalBetween(a, b int) units.DataSize {
	return m.Vol(a, b) + m.Vol(b, a)
}
