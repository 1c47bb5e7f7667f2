package correlation

import (
	"slices"

	"geovmp/internal/units"
)

// RowDiff is what DataMatrix.Refill changed in the matrix's pair structure,
// plus the scratch it works in; reuse one across refills.
type RowDiff struct {
	// Senders lists, once each, the senders whose receiver sequence (the
	// receivers, or their insertion order) changed.
	Senders []int
	// Receivers lists the receiver of every pair the refill added or
	// removed: the receivers whose set of senders changed. A receiver is
	// listed once per such pair.
	Receivers []int

	// reach is indexed by sender: 0 while the refill has not reached the
	// row, 1+k while its first k cells still match the new pairs, -1 once
	// the row has diverged. old holds each diverged row's former
	// receivers: Senders[i]'s are old[oldAt[i]:oldAt[i+1]].
	reach   []int32
	reached []int
	old     []int
	oldAt   []int
}

// Refill replaces the matrix's contents with n pairs, pair k being at(k),
// and leaves it bit for bit as Reset followed by Add over the pairs in
// order would: the same rows in the same insertion order, the same volumes
// and the same pair count and Mean. Unlike Reset it keeps every cell whose
// row position the new pairs repeat, so a refill that moves few pairs
// restructures few rows, and d reports exactly which senders' rows and
// which receivers' sender sets moved.
func (m *DataMatrix) Refill(n int, at func(k int) (from, to int, vol units.DataSize), d *RowDiff) {
	d.Senders, d.Receivers, d.old, d.oldAt = d.Senders[:0], d.Receivers[:0], d.old[:0], d.oldAt[:0]
	d.reached = d.reached[:0]
	for k := 0; k < n; k++ {
		from, to, vol := at(k)
		if !Stores(from, to, vol) {
			continue
		}
		if from >= len(m.rows) || from >= len(d.reach) {
			if from >= len(m.rows) {
				m.growRows(from)
			}
			d.reach = append(d.reach, make([]int32, max(len(m.rows)-len(d.reach), 0))...)
		}
		row := m.rows[from]
		c := d.reach[from]
		if c == 0 {
			d.reached = append(d.reached, from)
			c = 1
		}
		if c > 0 {
			next := int(c - 1)
			if next < len(row) && row[next].to == to {
				row[next].vol = vol // the pair's first occurrence: Add's new cell
				d.reach[from] = c + 1
				continue
			}
			if i := cellIndex(row[:next], to); i >= 0 {
				row[i].vol += vol
				d.reach[from] = c
				continue
			}
			// The row diverges here: keep its former receivers for the
			// report and drop the cells the new pairs have not matched.
			d.saveRow(from, row)
			m.pairs -= len(row) - next
			row = row[:next]
			d.reach[from] = -1
		} else if i := cellIndex(row, to); i >= 0 {
			row[i].vol += vol
			continue
		}
		if len(row) == 0 && !m.registered(from) {
			m.register(from)
		}
		m.rows[from] = append(row, volCell{to: to, vol: vol})
		m.pairs++
	}
	// Rows the new pairs did not reach empty; rows they reached keep only
	// the cells they matched. froms is walked from the back, so the swap
	// removal moves only rows already visited.
	for i := len(m.froms) - 1; i >= 0; i-- {
		if from := m.froms[i]; from >= len(d.reach) || d.reach[from] == 0 {
			d.saveRow(from, m.rows[from])
			m.pairs -= len(m.rows[from])
			m.rows[from] = m.rows[from][:0]
			m.unregister(from)
		}
	}
	for _, from := range d.reached {
		if c := int(d.reach[from]); c > 0 && c-1 < len(m.rows[from]) {
			d.saveRow(from, m.rows[from])
			m.pairs -= len(m.rows[from]) - (c - 1)
			m.rows[from] = m.rows[from][:c-1]
			if c == 1 {
				m.unregister(from)
			}
		}
		d.reach[from] = 0
	}
	d.oldAt = append(d.oldAt, len(d.old))
	for i, from := range d.Senders {
		was, row := d.old[d.oldAt[i]:d.oldAt[i+1]], m.rows[from]
		for _, c := range row {
			if !slices.Contains(was, c.to) {
				d.Receivers = append(d.Receivers, c.to)
			}
		}
		for _, to := range was {
			if cellIndex(row, to) < 0 {
				d.Receivers = append(d.Receivers, to)
			}
		}
	}
}

// registered reports whether from is in froms.
func (m *DataMatrix) registered(from int) bool {
	return m.live[from>>6]&(1<<(from&63)) != 0
}

// saveRow records that from's row diverged, with its former receivers.
func (d *RowDiff) saveRow(from int, row []volCell) {
	d.Senders = append(d.Senders, from)
	d.oldAt = append(d.oldAt, len(d.old))
	for _, c := range row {
		d.old = append(d.old, c.to)
	}
}

func cellIndex(row []volCell, to int) int {
	for i := range row {
		if row[i].to == to {
			return i
		}
	}
	return -1
}

// Partners appends id's partners to dst in Adjacency's first-encounter
// order — the senders to id below it ascending, then id's receivers in
// insertion order, then the senders above it ascending, each partner once
// at its first occurrence — so the result is id's row of the Adjacency
// that binds every id to itself.
// senders must list the senders to id and nothing else, in any order and
// with any repeats; it is sorted in place.
func (m *DataMatrix) Partners(dst []int, id int, senders []int) []int {
	slices.Sort(senders)
	senders = slices.Compact(senders)
	start := len(dst)
	above, _ := slices.BinarySearch(senders, id)
	dst = append(dst, senders[:above]...)
	if id >= 0 && id < len(m.rows) {
		for _, c := range m.rows[id] {
			if !slices.Contains(dst[start:], c.to) {
				dst = append(dst, c.to)
			}
		}
	}
	for _, q := range senders[above:] {
		if !slices.Contains(dst[start:], q) {
			dst = append(dst, q)
		}
	}
	return dst
}
