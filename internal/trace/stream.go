package trace

import (
	"runtime"
	"slices"
	"sync"

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
// per-slot profiles — read through windows: slot ranges [lo, hi) of width
// slots, each packing every VM's rows over its range into one buffer.
// Windows are aligned at multiples of width from slot 0, so the sequence
// of windows a run visits is a pure function of the compile options —
// independent of when Advance is called. A resident table has one window
// spanning the horizon, which Compile fills and every cursor shares
// read-only. A streamed table is narrower: its windows are shared by the
// cursors of concurrent runs, and each is filled once by the cursors that
// reach it while the fill runs (see windows). A table of width 0 has no
// rows.
type table struct {
	width    int
	rowLen   int   // floats per row (steps or samples)
	bytes    int64 // the full table's footprint
	slotPeak int64 // the footprint of its busiest slot's rows

	res    *window  // a resident table's window (nil: streamed or no rows)
	shared *windows // a streamed table's open windows (nil: resident)
}

// window is one positioned slot range of a table.
type window struct {
	lo, hi timeutil.Slot
	rowLen int
	start  []timeutil.Slot // per VM: first covered slot in window (-1: none)
	end    []timeutil.Slot // per VM: last covered slot (inclusive)
	off    []int           // per VM: first row index into buf
	buf    []float64

	refs int         // cursors positioned on it (guarded by windows.mu)
	fill *par.Shared // the fill that cursors reaching it join
}

// windows is a streamed table's open windows, keyed by aligned start slot
// and reference-counted by the cursors positioned on them. The first
// cursor to reach a window lays it out and fills it; cursors that arrive
// during the fill join it, and later ones read the finished rows. When the
// last cursor leaves a window it joins the idle windows, which keep their
// rows: a cursor that comes back to one reads it again without a refill. A
// layout takes the least recently left idle window's buffers, and
// allocates only when no window is idle or the one it takes is too small.
// At most maxIdle windows stay idle, so a table of up to maxIdle windows
// is filled once and then held, and the runs that pass over a wider one
// again and again stop allocating and dropping window buffers after the
// first pass. A streamed table holds at most one window per open cursor
// plus maxIdle idle ones, each within the budget.
type windows struct {
	mu   sync.Mutex
	live map[timeutil.Slot]*window
	idle []*window // least recently left first
}

// maxIdle bounds a streamed table's idle windows.
const maxIdle = 2

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

// align returns the first slot of t's window containing sl.
func (t *table) align(sl timeutil.Slot) timeutil.Slot {
	return sl / timeutil.Slot(t.width) * timeutil.Slot(t.width)
}

// streamed reports whether t is an over-budget table, read through
// shared windows narrower than the horizon.
func (c *Compiled) streamed(t *table) bool {
	return t.width > 0 && timeutil.Slot(t.width) < c.slots
}

// row returns the buffered row for (id, sl), or nil when uncovered or w is
// nil. Pure read — safe from concurrent readers once the window is filled.
func (w *window) row(id int, sl timeutil.Slot) []float64 {
	if w == nil || id < 0 || id >= len(w.start) || sl < w.lo || sl >= w.hi {
		return nil
	}
	a := w.start[id]
	if a < 0 || sl < a || sl > w.end[id] {
		return nil
	}
	k := w.off[id] + int(sl-a)
	return w.buf[k*w.rowLen : (k+1)*w.rowLen]
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

// rowSource returns what t's rows are made of: the slots each VM's rows
// cover, the per-VM row fill, and the per-slot step grids of the
// service-major fill (nil: the per-VM fill only).
func (c *Compiled) rowSource(t *table) (cover func(id int) (a, b timeutil.Slot), fill func(dst []float64, id int, a, b timeutil.Slot), grids []StepGrid) {
	if t == &c.prof {
		return c.obsWindow, c.fillProfile, c.profGrids
	}
	return c.activeWindow, c.fillFine, c.grids
}

// layout positions a window of t on the aligned range containing sl —
// reusing w's buffers, or fresh ones when w is nil — and attaches its
// unstarted fill.
func (c *Compiled) layout(t *table, w *window, sl timeutil.Slot) *window {
	if w == nil {
		w = &window{
			rowLen: t.rowLen,
			start:  make([]timeutil.Slot, c.numVMs),
			end:    make([]timeutil.Slot, c.numVMs),
			off:    make([]int, c.numVMs),
		}
	}
	cover, fill, grids := c.rowSource(t)
	w.lo = t.align(sl)
	w.hi = min(w.lo+timeutil.Slot(t.width), c.slots)
	rows := 0
	for id := 0; id < c.numVMs; id++ {
		a, b := cover(id)
		a, b = max(a, w.lo), min(b, w.hi-1)
		if a > b {
			w.start[id] = -1
			continue
		}
		w.start[id], w.end[id] = a, b
		w.off[id] = rows
		rows += int(b - a + 1)
	}
	need := rows * t.rowLen
	if cap(w.buf) < need {
		w.buf = make([]float64, need)
	}
	w.buf = w.buf[:need]
	if wl, ok := c.synth.(*Workload); ok && grids != nil {
		w.fill = w.serviceFill(wl, grids)
	} else {
		w.fill = par.NewShared(c.numVMs, vmRowGrain, func(lo, hi int) {
			for id := lo; id < hi; id++ {
				if a := w.start[id]; a >= 0 {
					fill(w.buf[w.off[id]*w.rowLen:], id, a, w.end[id])
				}
			}
		})
	}
	return w
}

// serviceFill is the fill of w service-major from wl's row kernel, sharded
// over services: per slot, one diurnal row serves every member VM the
// window covers there, since members share their service's peak hour.
// Each shard's only scratch is that row.
func (w *window) serviceFill(wl *Workload, grids []StepGrid) *par.Shared {
	return par.NewShared(len(wl.services), serviceGrain, func(lo, hi int) {
		diurnal := make([]float64, w.rowLen)
		for _, s := range wl.services[lo:hi] {
			for sl := w.lo; sl < w.hi; sl++ {
				shared := false
				for _, id := range s.Members {
					if row := w.row(id, sl); row != nil {
						if !shared {
							diurnalRow(diurnal, s.PeakHour, &grids[sl])
							shared = true
						}
						wl.fillUtilRow(row, id, &grids[sl], diurnal)
					}
				}
			}
		}
	})
}

// move positions h on t's window containing sl, leaving h's current one,
// and returns the window's fill for the caller to join. A window no cursor
// is on is taken from the idle ones when one holds its rows, and is laid
// out afresh otherwise (see windows).
func (c *Compiled) move(t *table, h *hold, sl timeutil.Slot) *par.Shared {
	s, lo := t.shared, t.align(sl)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.leave(h)
	w := s.live[lo]
	if w == nil {
		i := slices.IndexFunc(s.idle, func(w *window) bool { return w.lo == lo })
		switch {
		case i >= 0:
			w = s.idle[i]
		case len(s.idle) > 0:
			i, w = 0, c.layout(t, s.idle[0], sl)
		default:
			w = c.layout(t, nil, sl)
		}
		if i >= 0 {
			s.idle = slices.Delete(s.idle, i, i+1)
		}
		s.live[lo] = w
	}
	s.trim()
	w.refs++
	h.w = w
	return w.fill
}

// leave takes h off its window, if any; when h was its last cursor the
// window becomes the most recently left idle one. The caller holds s.mu
// and trims the idle windows once it has taken what it needs of them.
func (s *windows) leave(h *hold) {
	w := h.w
	if w == nil {
		return
	}
	h.w = nil
	if w.refs--; w.refs == 0 {
		delete(s.live, w.lo)
		s.idle = append(s.idle, w)
	}
}

// trim drops the least recently left idle windows beyond maxIdle. The
// caller holds s.mu.
func (s *windows) trim() {
	if n := len(s.idle) - maxIdle; n > 0 {
		s.idle = slices.Delete(s.idle, 0, n)
	}
}

// hold is a cursor's place on its table: the window its rows are read
// from. It lives apart from the cursor so that a cursor's cleanup can
// release it once the cursor is garbage.
type hold struct {
	shared *windows // nil over a resident table, whose window stays
	w      *window
}

// release takes a streamed cursor off its window.
func (h *hold) release() {
	if s := h.shared; s != nil {
		s.mu.Lock()
		s.leave(h)
		s.trim()
		s.mu.Unlock()
	}
}

// cursor reads one table for one simulation run: Advance is called
// serially (once per slot, by the run's slot loop) and rows are safe for
// the run's concurrent readers between advances. Over a resident table the
// cursor reads the compiled window and Advance never moves it. Over a
// streamed one Advance moves it through the table's shared windows, whose
// fill is the one Compile uses for a resident table, so the streamed
// values are byte-identical to the resident ones.
type cursor struct {
	c       *Compiled
	t       *table
	workers *par.Budget
	h       *hold
	cleanup runtime.Cleanup
}

// newCursor returns a cursor over t: on a resident table's one window, or
// unpositioned on a streamed one.
func (c *Compiled) newCursor(t *table, workers *par.Budget) cursor {
	return cursor{c: c, t: t, workers: workers, h: &hold{shared: t.shared, w: t.res}}
}

// closeWhenGarbage arranges for a streamed cursor p holding h to leave its
// window once p is garbage.
func closeWhenGarbage[T any](p *T, h *hold) runtime.Cleanup {
	if h.shared == nil {
		return runtime.Cleanup{}
	}
	return runtime.AddCleanup(p, (*hold).release, h)
}

// Advance positions the cursor on the window containing sl. When no other
// cursor is on it the window is filled; a cursor that arrives while the
// window fills takes shards of that fill, and later ones read it as is.
// workers optionally lend goroutines to the fill, sharded over VMs, or
// over services for the synthetic Workload (disjoint rows, so the content
// is identical at any worker count and however many cursors joined). Must
// not run concurrently with the cursor's row reads, nor after Close.
func (cur *cursor) Advance(sl timeutil.Slot) {
	t, w := cur.t, cur.h.w
	if t.shared == nil || sl < 0 || sl >= cur.c.slots || (w != nil && sl >= w.lo && sl < w.hi) {
		return
	}
	cur.c.move(t, cur.h, sl).Join(cur.workers)
}

// Close takes the cursor off its window; the window's buffers are reused
// once no cursor is on it (see windows). Close is idempotent, and a cursor
// that is never closed is closed when it becomes garbage.
func (cur *cursor) Close() {
	cur.h.release()
	cur.cleanup.Stop()
}

// WindowBytes returns the resident footprint of the cursor's window — the
// quantity the compile budget bounds for a streamed table. A streamed
// cursor reads zero before its first Advance.
func (cur *cursor) WindowBytes() int64 {
	if w := cur.h.w; w != nil {
		return int64(len(w.buf)) * 8
	}
	return 0
}

// FineCursor reads a compiled fine table for one run (see cursor).
type FineCursor struct {
	cursor
}

// NewFineCursor returns a cursor over the fine table. workers optionally
// lends goroutines to the window fills of a streamed table.
func (c *Compiled) NewFineCursor(workers *par.Budget) *FineCursor {
	cur := &FineCursor{c.newCursor(&c.fine, workers)}
	cur.cleanup = closeWhenGarbage(cur, cur.h)
	return cur
}

// FineRow implements FineRows from the current window.
func (cur *FineCursor) FineRow(id int, sl timeutil.Slot) []float64 { return cur.h.w.row(id, sl) }

// ProfileCursor reads a compiled per-slot profile table for one run,
// windowed over observation slots: Advance takes the observation slot.
// Rows read nil when no profile table was compiled (Samples <= 0).
type ProfileCursor struct {
	cursor
}

// NewProfileCursor returns a cursor over the profile table. workers
// optionally lends goroutines to the window fills of a streamed table.
func (c *Compiled) NewProfileCursor(workers *par.Budget) *ProfileCursor {
	cur := &ProfileCursor{c.newCursor(&c.prof, workers)}
	cur.cleanup = closeWhenGarbage(cur, cur.h)
	return cur
}

// ProfileRow returns the VM's profile for observation slot sl from the
// current window, or nil when uncovered. A streamed window's buffer is
// reused once no cursor is on it; consumers that retain rows past the
// next Advance must copy them (ProfileSet.Add already copies rows).
func (cur *ProfileCursor) ProfileRow(id int, sl timeutil.Slot) []float64 {
	return cur.h.w.row(id, sl)
}

// LiveWindows returns how many streamed windows, over both tables, have a
// cursor positioned on them: zero once every cursor is closed or
// collected.
func (c *Compiled) LiveWindows() int {
	n := 0
	for _, t := range []*table{&c.fine, &c.prof} {
		if s := t.shared; s != nil {
			s.mu.Lock()
			n += len(s.live)
			s.mu.Unlock()
		}
	}
	return n
}
