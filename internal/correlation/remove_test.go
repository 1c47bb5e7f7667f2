package correlation

import (
	"fmt"
	"slices"
	"testing"

	"geovmp/internal/units"
)

// removeVMScan is the full-scan departure RemoveVM replaced, kept as its
// oracle: it visits every registered row and compacts out the cells that
// name id, with no adjacency to go on.
func (m *DataMatrix) removeVMScan(id int) {
	if id < 0 {
		return
	}
	for fi := 0; fi < len(m.froms); {
		from := m.froms[fi]
		row := m.rows[from]
		w := 0
		if from == id {
			m.pairs -= len(row)
		} else {
			for _, c := range row {
				if c.to == id {
					m.pairs--
					continue
				}
				row[w] = c
				w++
			}
		}
		m.rows[from] = row[:w]
		if w == 0 {
			m.froms[fi] = m.froms[len(m.froms)-1]
			m.froms = m.froms[:len(m.froms)-1]
			continue
		}
		fi++
	}
}

// removeTwin drives a matrix through RemoveVM with a caller-kept
// adjacency, the way the daemon does, next to an oracle that removes by
// full scan.
type removeTwin struct {
	dm, oracle *DataMatrix
	adj        map[int][]int // both directions, dedup, first-link order
}

func newRemoveTwin() *removeTwin {
	return &removeTwin{dm: NewDataMatrix(), oracle: NewDataMatrix(), adj: map[int][]int{}}
}

func (r *removeTwin) add(from, to int, vol units.DataSize) {
	r.dm.Add(from, to, vol)
	r.oracle.Add(from, to, vol)
	if vol > 0 && from != to && from >= 0 && to >= 0 {
		r.link(from, to)
		r.link(to, from)
	}
}

func (r *removeTwin) link(a, b int) {
	if !slices.Contains(r.adj[a], b) {
		r.adj[a] = append(r.adj[a], b)
	}
}

// remove departs id; extra ids are appended to its partner list to show
// RemoveVM skips what is not a partner.
func (r *removeTwin) remove(id int, extra ...int) {
	partners := append(slices.Clone(r.adj[id]), extra...)
	r.dm.RemoveVM(id, partners)
	r.oracle.removeVMScan(id)
	for _, q := range r.adj[id] {
		r.adj[q] = slices.DeleteFunc(r.adj[q], func(x int) bool { return x == id })
	}
	delete(r.adj, id)
}

type cell struct {
	from, to int
	vol      units.DataSize
}

func cells(m *DataMatrix) []cell {
	var out []cell
	m.Each(func(from, to int, vol units.DataSize) { out = append(out, cell{from, to, vol}) })
	return out
}

// check holds the two matrices equal under every observable query, and
// the removal side's row registry consistent: froms lists exactly the
// non-empty rows, each at the index fromAt records.
func (r *removeTwin) check(t *testing.T, step string) {
	t.Helper()
	got, want := r.dm, r.oracle
	if g, w := cells(got), cells(want); !slices.Equal(g, w) {
		t.Fatalf("%s: Each %v, oracle %v", step, g, w)
	}
	if got.Len() != want.Len() || got.Mean() != want.Mean() {
		t.Fatalf("%s: Len/Mean %d/%v, oracle %d/%v", step,
			got.Len(), got.Mean(), want.Len(), want.Mean())
	}
	nonEmpty := 0
	for from, row := range got.rows {
		if len(row) == 0 {
			continue
		}
		nonEmpty++
		if i := got.fromAt[from]; int(i) >= len(got.froms) || got.froms[i] != from {
			t.Fatalf("%s: row %d not registered at froms[%d]", step, from, i)
		}
	}
	if nonEmpty != len(got.froms) {
		t.Fatalf("%s: %d non-empty rows, %d registered", step, nonEmpty, len(got.froms))
	}
}

// TestRemoveVMMatchesScan pins the degree-bounded removal against the full
// scan on the cases its partner list makes delicate: a partner list naming
// id itself, repeats and unknown ids; ids never added and ids past the
// rows; sender and receiver rows that empty and are re-added; and
// removals that take the maximum, which forces the rescan.
func TestRemoveVMMatchesScan(t *testing.T) {
	r := newRemoveTwin()
	r.add(0, 1, 5)
	r.add(1, 0, 2)
	r.add(2, 0, 9) // the maximum
	r.add(2, 1, 3)
	r.add(3, 3, 7) // self-pair: Add ignores it
	r.add(1, 2, 4)
	r.add(4, 1, 1)
	r.check(t, "built")

	r.remove(7) // never added, inside no row
	r.check(t, "unknown id")
	r.remove(1000, 0, 1, -3) // past every row, with bogus partners
	r.check(t, "id past the rows")
	r.remove(-1)
	r.check(t, "negative id")
	r.remove(3, 3, 3)
	r.check(t, "self-pair only")

	r.add(5, 6, 20) // a sender row holds the maximum
	r.remove(5)
	r.check(t, "sender row held the max")

	r.remove(0, 0, 0, 2, 999) // a receiver row held the maximum
	r.check(t, "max holder")

	r.remove(4) // row 4 empties
	r.check(t, "sender row empties")
	r.add(4, 2, 6) // re-registered exactly once
	r.add(0, 4, 8)
	r.check(t, "re-added")

	r.remove(2) // receiver rows 4 (emptied) and 1 compact; 2's row goes
	r.check(t, "receiver rows empty")
	r.remove(1)
	r.remove(4)
	r.remove(0)
	r.check(t, "drained")
	if r.dm.Len() != 0 || len(r.dm.froms) != 0 {
		t.Fatalf("drained matrix: Len %d froms %v", r.dm.Len(), r.dm.froms)
	}
	r.add(3, 1, 2)
	r.check(t, "refilled")
}

// FuzzRemoveVM holds the degree-bounded RemoveVM to the full-scan oracle
// over arbitrary Add/remove sequences on 16 ids. Each 4-byte op adds in
// one or both directions (repeats accumulate, self-pairs and zero volumes
// are dropped), removes a VM with its exact partner list, or removes one
// with that list padded by itself, a repeat and an unknown id, so rows
// empty, re-Add and lose their maximum.
func FuzzRemoveVM(f *testing.F) {
	f.Add([]byte{0, 0, 1, 5, 1, 2, 0, 3, 2, 0, 0, 0, 0, 1, 2, 4})
	f.Add([]byte{1, 3, 4, 7, 0, 4, 3, 2, 3, 4, 0, 0, 0, 4, 5, 1, 2, 5, 0, 0})
	f.Add([]byte{0, 1, 1, 3, 0, 2, 2, 4, 2, 2, 0, 0, 1, 0, 9, 7, 3, 0, 0, 0, 2, 9, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nIDs = 16
		r := newRemoveTwin()
		for k, ops := 0, data; len(ops) >= 4; k, ops = k+1, ops[4:] {
			a, b := int(ops[1])%nIDs, int(ops[2])%nIDs
			v := units.DataSize(ops[3] % 8)
			switch ops[0] % 4 {
			case 0:
				r.add(a, b, v)
			case 1:
				r.add(a, b, v)
				r.add(b, a, v+1)
			case 2:
				r.remove(a)
			case 3:
				r.remove(a, a, b, b, nIDs+int(ops[3]))
			}
			r.check(t, fmt.Sprintf("op %d", k))
		}
	})
}
