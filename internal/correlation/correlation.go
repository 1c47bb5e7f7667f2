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
// The package also offers the ProfileSet container the controllers use to
// evaluate many pairwise correlations against per-slot downsampled
// utilization profiles.
package correlation

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"

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
	return clampCorr(peakAB / den)
}

// clampCorr clamps a combined-peak ratio to the documented (0, 1] range,
// flooring slightly above zero. Every kernel ends in it, which keeps them
// bit-identical.
func clampCorr(c float64) float64 {
	if c < 1e-9 {
		c = 1e-9
	}
	if c > 1 {
		c = 1
	}
	return c
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
// array loads instead of map lookups — and every row, Samples() values
// long, is copied into one contiguous arena in insertion order, so the
// pairwise sweep touches a few cache-resident kilobytes instead of rows
// scattered across the workload's tables. Build one per slot via Add (or
// Reset and refill to reuse the backing arrays across slots), then query.
type ProfileSet struct {
	samples int
	arena   []float64 // contiguous samples-length rows, insertion order
	off     []int32   // indexed by id: arena offset, or absentRow
	peaks   []float64 // indexed by id; valid only where a row exists
	ids     []int     // ids currently registered
	idPos   []int32   // indexed by id: position in ids, valid where a row exists
	// freeStd holds the arena rows released by Remove, reused LIFO by
	// later Adds so a long-running arrival/departure stream stays
	// allocation-free and the arena does not grow past the peak population.
	freeStd []int32
}

// Fixed-point parameters of fast mode's peak coincidence (a Packed table
// built with fast).
const (
	// qScale is the tick size: 4096 ticks per unit of utilization, so the
	// 65536 tick counts of a uint16 cover utilizations up to 16.0 with
	// 2.4e-4 resolution. Rows holding a negative or NaN sample, or one
	// that rounds to 65536 ticks or more, are packed as slowRow and fall
	// back to the exact kernel pair by pair.
	qScale = 4096
	// qMinDen is the minimum quantized peak sum (numerator of Eq. 5's
	// denominator) a fast table scans: 512 ticks = 1/8 of one core.
	// Near-idle pairs below it fall back to the exact kernel, which caps
	// the relative quantization error (see FastEps).
	qMinDen = 512
)

// FastEps bounds the absolute error of a fast table against the exact
// kernel, per pair: numerator and denominator are each within ±1 tick of the
// scaled exact values, the denominator is at least qMinDen ticks, and the
// ratio is <= 1, so |fast - exact| <= 2/qMinDen. The clamps to [1e-9, 1]
// are shared and 1-Lipschitz, so they never widen the gap.
const FastEps = 2.0 / qMinDen

const absentRow = int32(-1)

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
	ps.freeStd = ps.freeStd[:0]
}

// Add registers a VM's profile, copying it into the set's arena; it panics
// unless the row holds exactly Samples() values. Adding an id that already
// has a profile replaces it in place (the streaming controller's
// telemetry-refresh path). Any Add/Remove sequence leaves queries equal to
// a set built from scratch over the surviving profiles.
func (ps *ProfileSet) Add(id int, prof []float64) {
	if len(prof) != ps.samples {
		panic(fmt.Sprintf("correlation: profile of %d samples added to a set of %d", len(prof), ps.samples))
	}
	if id < 0 {
		return
	}
	if id >= len(ps.off) {
		ps.grow(id + 1)
	}
	off := ps.off[id]
	if off == absentRow {
		ps.idPos[id] = int32(len(ps.ids))
		ps.ids = append(ps.ids, id)
		if n := len(ps.freeStd); n > 0 {
			off = ps.freeStd[n-1]
			ps.freeStd = ps.freeStd[:n-1]
		}
	}
	if off >= 0 {
		copy(ps.arena[off:int(off)+ps.samples], prof)
	} else {
		off = int32(len(ps.arena))
		ps.arena = append(ps.arena, prof...)
	}
	ps.off[id] = off
	var peak float64
	for _, u := range prof {
		if u > peak {
			peak = u
		}
	}
	ps.peaks[id] = peak
}

// Remove forgets id's profile, releasing its arena row to the free list for
// later Adds — the departure amendment of the streaming controller, which
// adjusts the set per VM arrival/departure instead of rebuilding the world.
// Removing an absent id is a no-op.
func (ps *ProfileSet) Remove(id int) {
	if id < 0 || id >= len(ps.off) || ps.off[id] == absentRow {
		return
	}
	// The freed row keeps stale floats until a later Add overwrites it; no
	// query resolves to it because no off entry points at it.
	ps.freeStd = append(ps.freeStd, ps.off[id])
	ps.off[id] = absentRow
	ps.peaks[id] = 0
	p := ps.idPos[id]
	last := ps.ids[len(ps.ids)-1]
	ps.ids[p] = last
	ps.idPos[last] = p
	ps.ids = ps.ids[:len(ps.ids)-1]
}

// Clone returns an independent copy of the set: every query answers as the
// source's, and later changes to either leave the other as it was.
func (ps *ProfileSet) Clone() *ProfileSet {
	return &ProfileSet{
		samples: ps.samples,
		arena:   slices.Clone(ps.arena),
		off:     slices.Clone(ps.off),
		peaks:   slices.Clone(ps.peaks),
		ids:     slices.Clone(ps.ids),
		idPos:   slices.Clone(ps.idPos),
		freeStd: slices.Clone(ps.freeStd),
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
	if off == absentRow {
		return nil
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

// CPUCorr returns the peak-coincidence CPU-load correlation of two
// registered VMs; pairs with a missing profile, or whose peaks are both
// zero, return the neutral 0.5. It is one full scan over the two arena rows
// with the peaks computed at Add time, identical to PeakCoincidence: the
// stored peaks are its own >-from-0 maxima, and the clamps are shared.
func (ps *ProfileSet) CPUCorr(i, j int) float64 {
	a := ps.Profile(i)
	b := ps.Profile(j)
	if a == nil || b == nil {
		return 0.5
	}
	den := ps.peaks[i] + ps.peaks[j]
	if den <= 0 {
		return 0.5
	}
	b = b[:len(a)]
	var peakAB float64
	for t, at := range a {
		if s := at + b[t]; s > peakAB {
			peakAB = s
		}
	}
	return clampCorr(peakAB / den)
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
// of a map probe and iteration order is deterministic. A bitset of the
// registered senders lets the ascending walks (Mean, Each) skip empty rows.
type DataMatrix struct {
	rows   [][]volCell // indexed by from
	froms  []int       // the non-empty rows
	fromAt []int32     // indexed by from: its index in froms, where registered
	live   []uint64    // bit from is set while from is in froms
	pairs  int
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
	clear(m.live)
	m.pairs = 0
}

// Clone returns an independent copy of the matrix: every query, and the
// Each walk, answer as the source's, and later changes to either leave the
// other as it was.
func (m *DataMatrix) Clone() *DataMatrix {
	c := &DataMatrix{
		rows:   make([][]volCell, len(m.rows)),
		froms:  slices.Clone(m.froms),
		fromAt: slices.Clone(m.fromAt),
		live:   slices.Clone(m.live),
		pairs:  m.pairs,
	}
	cells := make([]volCell, 0, m.pairs)
	for _, from := range m.froms {
		lo := len(cells)
		cells = append(cells, m.rows[from]...)
		c.rows[from] = cells[lo:len(cells):len(cells)]
	}
	return c
}

// Stores reports whether Add keeps the pair (from, to): it drops
// non-positive volumes, self pairs and negative ids.
func Stores(from, to int, vol units.DataSize) bool {
	return !(vol <= 0 || from == to || from < 0 || to < 0)
}

// Add accumulates volume onto the directed pair (from, to).
func (m *DataMatrix) Add(from, to int, vol units.DataSize) {
	if !Stores(from, to, vol) {
		return
	}
	if from >= len(m.rows) {
		m.growRows(from)
	}
	row := m.rows[from]
	if len(row) == 0 {
		m.register(from)
	}
	for i := range row {
		if row[i].to == to {
			row[i].vol += vol
			return
		}
	}
	m.rows[from] = append(row, volCell{to: to, vol: vol})
	m.pairs++
}

// growRows extends the row tables to cover sender from.
func (m *DataMatrix) growRows(from int) {
	n := from + 1
	if d := 2 * len(m.rows); n < d {
		n = d
	}
	rows := make([][]volCell, n)
	copy(rows, m.rows)
	m.rows = rows
	fromAt := make([]int32, n)
	copy(fromAt, m.fromAt)
	m.fromAt = fromAt
	m.live = append(m.live, make([]uint64, (n+63)/64-len(m.live))...)
}

// register appends from to froms and sets its live bit.
func (m *DataMatrix) register(from int) {
	m.fromAt[from] = int32(len(m.froms))
	m.froms = append(m.froms, from)
	m.live[from>>6] |= 1 << (from & 63)
}

// RemoveVM deletes every directed pair involving id — the departure
// amendment of the streaming controller. partners must name every VM that
// exchanges data with id in either direction (the caller's adjacency);
// repeats, id itself and ids without a row are skipped. Only id's row and
// the partners' rows are touched, so the cost is O(degree x row length)
// whatever the matrix holds. Surviving cells keep their insertion order, so
// iteration and every query match a matrix rebuilt from scratch by
// replaying the surviving adds in their original order. Removing an
// unknown id is a no-op.
func (m *DataMatrix) RemoveVM(id int, partners []int) {
	if id < 0 {
		return
	}
	if id < len(m.rows) {
		if row := m.rows[id]; len(row) > 0 {
			m.pairs -= len(row)
			m.rows[id] = row[:0]
			m.unregister(id)
		}
	}
	for _, from := range partners {
		if from < 0 || from >= len(m.rows) || from == id {
			continue
		}
		// Receiver row: order-preserving compaction.
		row := m.rows[from]
		w := 0
		for _, c := range row {
			if c.to == id {
				continue
			}
			row[w] = c
			w++
		}
		if w == len(row) {
			continue // not a receiver of id's, or a repeat already compacted
		}
		m.pairs -= len(row) - w
		m.rows[from] = row[:w]
		if w == 0 {
			m.unregister(from)
		}
	}
}

// unregister drops an emptied row from froms, so a later Add registers the
// sender exactly once. froms order is not observable, so the swap removal
// is fine.
func (m *DataMatrix) unregister(from int) {
	m.live[from>>6] &^= 1 << (from & 63)
	i := m.fromAt[from]
	last := m.froms[len(m.froms)-1]
	m.froms[i] = last
	m.fromAt[last] = i
	m.froms = m.froms[:len(m.froms)-1]
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

// Mean returns the average non-zero directed volume (0 when empty). Force
// normalization against a multiple of the mean keeps attraction meaningful
// under heavy-tailed volume distributions, where normalizing by the maximum
// would flatten almost every pair to zero.
func (m *DataMatrix) Mean() units.DataSize {
	if m.pairs == 0 {
		return 0
	}
	var sum units.DataSize
	for _, row := range m.liveRows() {
		for _, c := range row {
			sum += c.vol
		}
	}
	return units.DataSize(float64(sum) / float64(m.pairs))
}

// Each calls fn for every non-zero directed pair, in deterministic order:
// ascending sender id, receivers in insertion order.
func (m *DataMatrix) Each(fn func(from, to int, vol units.DataSize)) {
	for from, row := range m.liveRows() {
		for _, c := range row {
			fn(from, c.to, c.vol)
		}
	}
}

// liveRows yields the registered senders' rows in ascending sender order.
// An unregistered row is empty, so the walk visits every pair.
func (m *DataMatrix) liveRows() iter.Seq2[int, []volCell] {
	return func(yield func(int, []volCell) bool) {
		for w, word := range m.live {
			for ; word != 0; word &= word - 1 {
				from := w<<6 | bits.TrailingZeros64(word)
				if !yield(from, m.rows[from]) {
					return
				}
			}
		}
	}
}

// TotalBetween sums vol(a->b)+vol(b->a) — the undirected exchange intensity
// used by graph-partitioning baselines.
func (m *DataMatrix) TotalBetween(a, b int) units.DataSize {
	return m.Vol(a, b) + m.Vol(b, a)
}
