package trace

import (
	"geovmp/internal/par"
	"geovmp/internal/timeutil"
)

// FineRows is the read side of a compiled fine table: the *Compiled itself
// (resident rows only), or a FineCursor over either kind of table.
type FineRows interface {
	// FineRow returns the VM's utilization at every fine step of slot sl,
	// or nil when the table does not cover (id, sl).
	FineRow(id int, sl timeutil.Slot) []float64
}

var (
	_ FineRows = (*Compiled)(nil)
	_ FineRows = (*FineCursor)(nil)
)

// table is the one layout of a compiled utilization table — fine steps or
// per-slot profiles: a slot window [lo, hi) of width slots, with each VM's
// rows over the window packed into one buffer. A resident table's window
// spans the whole horizon; Compile positions and fills it once and every
// cursor over it shares it read-only. A streamed table is narrower and
// stays unpositioned in Compiled; each cursor refills its own copy as it
// advances. Windows are aligned at multiples of width from slot 0, so the
// sequence of windows a run visits is a pure function of the compile
// options — independent of when Advance is called. A table of width 0 has
// no rows.
type table struct {
	width    int
	rowLen   int   // floats per row (steps or samples)
	bytes    int64 // the full table's footprint
	slotPeak int64 // the footprint of its busiest slot's rows

	lo, hi timeutil.Slot   // current window; unpositioned when lo >= hi
	start  []timeutil.Slot // per VM: first covered slot in window (-1: none)
	end    []timeutil.Slot // per VM: last covered slot (inclusive)
	off    []int           // per VM: first row index into buf
	buf    []float64
}

// widthFor is the window width in slots for t under budget: the whole
// horizon when the full table fits, else the widest window whose busiest
// slots fit, at least one slot — always less than the horizon, since the
// full table is at most slots x slotPeak. A table with no rows gets width
// 0.
func (t *table) widthFor(budget int64, slots timeutil.Slot) int {
	switch {
	case t.slotPeak == 0:
		return 0
	case t.bytes <= budget:
		return int(slots)
	}
	return int(max(budget/t.slotPeak, 1))
}

// streamed reports whether t is an over-budget table, read through
// per-run windows narrower than the horizon.
func (c *Compiled) streamed(t *table) bool {
	return t.width > 0 && timeutil.Slot(t.width) < c.slots
}

// row returns the buffered row for (id, sl), or nil when uncovered. Pure
// read — safe from concurrent shards between Advance calls.
func (t *table) row(id int, sl timeutil.Slot) []float64 {
	if id < 0 || id >= len(t.start) || sl < t.lo || sl >= t.hi {
		return nil
	}
	a := t.start[id]
	if a < 0 || sl < a || sl > t.end[id] {
		return nil
	}
	k := t.off[id] + int(sl-a)
	return t.buf[k*t.rowLen : (k+1)*t.rowLen]
}

// activeWindow returns the VM's active slots [first, last] (a > b when it
// is never active): the slots its fine rows cover.
func (c *Compiled) activeWindow(id int) (a, b timeutil.Slot) {
	if c.first[id] < 0 {
		return 1, 0
	}
	return c.first[id], c.last[id]
}

// obsWindow returns the observation slots [obsSlot(first), obsSlot(last)]
// the VM's profile rows cover.
func (c *Compiled) obsWindow(id int) (a, b timeutil.Slot) {
	if c.first[id] < 0 {
		return 1, 0
	}
	return obsSlot(c.first[id]), obsSlot(c.last[id])
}

// cursor reads one table for one simulation run: Advance is called
// serially (once per slot, by the run's slot loop) and rows are safe for
// the run's concurrent readers between advances. Over a resident table the
// cursor shares the compiled window and Advance never moves it; over a
// streamed one it owns a window that Advance refills with the same row
// fill Compile uses, so the streamed values are byte-identical to the
// resident ones.
type cursor struct {
	c       *Compiled
	t       *table
	workers *par.Budget
	window  func(id int) (a, b timeutil.Slot) // the slots each VM's rows cover
	fill    func(dst []float64, id int, a, b timeutil.Slot)
	grids   []StepGrid // per slot, the rows' step grid (nil: a Workload's rows fill per VM too)
}

func (c *Compiled) newCursor(t *table, workers *par.Budget, window func(id int) (a, b timeutil.Slot), fill func(dst []float64, id int, a, b timeutil.Slot), grids []StepGrid) cursor {
	if c.streamed(t) {
		t = &table{width: t.width, rowLen: t.rowLen}
	}
	return cursor{c: c, t: t, workers: workers, window: window, fill: fill, grids: grids}
}

// Advance positions the cursor on the window containing sl, filling it if
// the window moved; workers optionally shard the fill over VMs, or over
// services for the synthetic Workload (disjoint rows, so the content is
// identical at any worker count). Must not run concurrently with the
// cursor's row reads.
func (cur *cursor) Advance(sl timeutil.Slot) {
	t, c := cur.t, cur.c
	if t.width == 0 || sl < 0 || sl >= c.slots || (sl >= t.lo && sl < t.hi) {
		return
	}
	if t.start == nil {
		t.start = make([]timeutil.Slot, c.numVMs)
		t.end = make([]timeutil.Slot, c.numVMs)
		t.off = make([]int, c.numVMs)
	}
	t.lo = sl / timeutil.Slot(t.width) * timeutil.Slot(t.width)
	t.hi = min(t.lo+timeutil.Slot(t.width), c.slots)
	rows := 0
	for id := 0; id < c.numVMs; id++ {
		a, b := cur.window(id)
		a, b = max(a, t.lo), min(b, t.hi-1)
		if a > b {
			t.start[id] = -1
			continue
		}
		t.start[id], t.end[id] = a, b
		t.off[id] = rows
		rows += int(b - a + 1)
	}
	need := rows * t.rowLen
	if cap(t.buf) < need {
		t.buf = make([]float64, need)
	}
	t.buf = t.buf[:need]
	if w, ok := c.synth.(*Workload); ok && cur.grids != nil {
		cur.fillServices(w)
		return
	}
	par.For(cur.workers, c.numVMs, vmRowGrain, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			if a := t.start[id]; a >= 0 {
				cur.fill(t.buf[t.off[id]*t.rowLen:], id, a, t.end[id])
			}
		}
	})
}

// fillServices fills the window service-major from w's row kernel: per
// slot, one diurnal row serves every member VM the window covers there,
// since members share their service's peak hour. Each shard's only
// scratch is that row.
func (cur *cursor) fillServices(w *Workload) {
	t := cur.t
	par.For(cur.workers, len(w.services), serviceGrain, func(lo, hi int) {
		diurnal := make([]float64, t.rowLen)
		for _, s := range w.services[lo:hi] {
			for sl := t.lo; sl < t.hi; sl++ {
				shared := false
				for _, id := range s.Members {
					if row := t.row(id, sl); row != nil {
						if !shared {
							diurnalRow(diurnal, s.PeakHour, cur.grids[sl])
							shared = true
						}
						w.fillUtilRow(row, id, cur.grids[sl], diurnal)
					}
				}
			}
		}
	})
}

// WindowBytes returns the resident footprint of the cursor's window — the
// quantity the compile budget bounds for a streamed table. A streamed
// cursor reads zero before its first Advance.
func (cur *cursor) WindowBytes() int64 { return int64(len(cur.t.buf)) * 8 }

// FineCursor reads a compiled fine table for one run (see cursor).
type FineCursor struct {
	cursor
}

// NewFineCursor returns a cursor over the fine table. workers optionally
// lends goroutines to each window fill of a streamed table.
func (c *Compiled) NewFineCursor(workers *par.Budget) *FineCursor {
	return &FineCursor{c.newCursor(&c.fine, workers, c.activeWindow, c.fillFine, c.grids)}
}

// FineRow implements FineRows from the current window.
func (cur *FineCursor) FineRow(id int, sl timeutil.Slot) []float64 { return cur.t.row(id, sl) }

// ProfileCursor reads a compiled per-slot profile table for one run,
// windowed over observation slots: Advance takes the observation slot.
// Rows read nil when no profile table was compiled (Samples <= 0).
type ProfileCursor struct {
	cursor
}

// NewProfileCursor returns a cursor over the profile table. workers
// optionally lends goroutines to each window fill of a streamed table.
func (c *Compiled) NewProfileCursor(workers *par.Budget) *ProfileCursor {
	return &ProfileCursor{c.newCursor(&c.prof, workers, c.obsWindow, c.fillProfile, c.profGrids)}
}

// ProfileRow returns the VM's profile for observation slot sl from the
// current window, or nil when uncovered. A streamed window's buffer is
// reused by the next Advance; consumers that retain rows must copy them
// (ProfileSet.Add already copies rows).
func (cur *ProfileCursor) ProfileRow(id int, sl timeutil.Slot) []float64 {
	return cur.t.row(id, sl)
}
