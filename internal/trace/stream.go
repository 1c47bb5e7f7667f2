package trace

import (
	"geovmp/internal/par"
	"geovmp/internal/timeutil"
)

// FineRows is the read side of a compiled fine table: the resident
// *Compiled itself, or a FineCursor positioned on the chunk containing the
// queried slot. The simulator's fine loop is written against this
// interface so the in-core and out-of-core paths share one code path.
type FineRows interface {
	// FineRow returns the VM's utilization at every fine step of slot sl,
	// or nil when the table does not cover (id, sl).
	FineRow(id int, sl timeutil.Slot) []float64
}

var (
	_ FineRows = (*Compiled)(nil)
	_ FineRows = (*FineCursor)(nil)
)

// chunkCursor is the shared geometry of the streaming cursors: one
// slot-range window [lo, hi) of `width` slots, with per-VM row runs packed
// into a single reused buffer. Chunks are aligned at multiples of width
// from slot 0, so the sequence of windows a run visits is a pure function
// of the compile options — independent of when Advance is called.
type chunkCursor struct {
	c       *Compiled
	workers *par.Budget
	width   int
	rowLen  int // floats per row (steps or samples)

	lo, hi timeutil.Slot   // current window [lo, hi); unpositioned when lo >= hi
	start  []timeutil.Slot // per VM: first covered slot in window (-1: none)
	end    []timeutil.Slot // per VM: last covered slot (inclusive)
	off    []int           // per VM: first row index into buf
	buf    []float64
}

func newChunkCursor(c *Compiled, workers *par.Budget, width, rowLen int) chunkCursor {
	cur := chunkCursor{
		c:       c,
		workers: workers,
		width:   width,
		rowLen:  rowLen,
		start:   make([]timeutil.Slot, c.numVMs),
		end:     make([]timeutil.Slot, c.numVMs),
		off:     make([]int, c.numVMs),
	}
	cur.lo, cur.hi = 1, 0 // unpositioned
	return cur
}

// position sets the window to the chunk containing sl and lays out the
// per-VM row runs over each VM's covered slots [a, b] as window reports
// them (a > b: none); it reports whether the window changed. The caller
// then writes buf.
func (cur *chunkCursor) position(sl timeutil.Slot, window func(id int) (a, b timeutil.Slot)) bool {
	if sl < 0 || sl >= cur.c.slots {
		return false
	}
	if sl >= cur.lo && sl < cur.hi {
		return false
	}
	k := int(sl) / cur.width
	cur.lo = timeutil.Slot(k * cur.width)
	cur.hi = cur.lo + timeutil.Slot(cur.width)
	if cur.hi > cur.c.slots {
		cur.hi = cur.c.slots
	}
	rows := 0
	for id := 0; id < cur.c.numVMs; id++ {
		a, b := window(id)
		a, b = max(a, cur.lo), min(b, cur.hi-1)
		if a > b {
			cur.start[id] = -1
			continue
		}
		cur.start[id], cur.end[id] = a, b
		cur.off[id] = rows
		rows += int(b - a + 1)
	}
	need := rows * cur.rowLen
	if cap(cur.buf) < need {
		cur.buf = make([]float64, need)
	}
	cur.buf = cur.buf[:need]
	return true
}

// activeWindow returns the VM's active slots [first, last] (a > b when it
// is never active): the slots its fine rows cover.
func (c *Compiled) activeWindow(id int) (a, b timeutil.Slot) {
	if c.first[id] < 0 {
		return 1, 0
	}
	return c.first[id], c.last[id]
}

// obsWindow returns the observation slots the VM's profile rows cover,
// mirroring the resident table's [obsSlot(first), obsSlot(last)] rows.
func (c *Compiled) obsWindow(id int) (a, b timeutil.Slot) {
	if c.first[id] < 0 {
		return 1, 0
	}
	return obsSlot(c.first[id]), obsSlot(c.last[id])
}

// row returns the buffered row for (id, sl), or nil when uncovered. Pure
// read — safe from concurrent shards between Advance calls.
func (cur *chunkCursor) row(id int, sl timeutil.Slot) []float64 {
	if id < 0 || id >= len(cur.start) || sl < cur.lo || sl >= cur.hi {
		return nil
	}
	a := cur.start[id]
	if a < 0 || sl < a || sl > cur.end[id] {
		return nil
	}
	k := cur.off[id] + int(sl-a)
	return cur.buf[k*cur.rowLen : (k+1)*cur.rowLen]
}

// WindowBytes returns the resident footprint of the current chunk window —
// the quantity the compile budget bounds. Zero before the first Advance.
func (cur *chunkCursor) WindowBytes() int64 { return int64(len(cur.buf)) * 8 }

// FineCursor streams an out-of-core fine table chunk by chunk. One cursor
// serves one simulation run: Advance is called serially (once per slot, by
// the run's slot loop) and FineRow is safe for the run's concurrent
// readers between advances. Rows are filled by the same row fill as the
// resident table — the source's row kernel over the retained per-slot step
// grids — so the streamed values are byte-identical to the in-core
// compile.
type FineCursor struct {
	chunkCursor
}

// NewFineCursor returns a streaming cursor over the chunked fine table, or
// nil when the table is resident (use FineRow directly then).
// workers optionally lends goroutines to each chunk fill; the rows are
// disjoint, so the chunk content is identical at any worker count.
func (c *Compiled) NewFineCursor(workers *par.Budget) *FineCursor {
	if c.fineChunk == 0 {
		return nil
	}
	return &FineCursor{newChunkCursor(c, workers, c.fineChunk, c.steps)}
}

// Advance positions the cursor on the chunk containing sl, compiling it if
// the window moved. Must not run concurrently with FineRow.
func (cur *FineCursor) Advance(sl timeutil.Slot) {
	c := cur.c
	if !cur.position(sl, c.activeWindow) {
		return
	}
	par.For(cur.workers, c.numVMs, vmRowGrain, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			if a := cur.start[id]; a >= 0 {
				c.fillFineRows(cur.buf[cur.off[id]*cur.rowLen:], id, a, cur.end[id])
			}
		}
	})
}

// FineRow implements FineRows from the current chunk.
func (cur *FineCursor) FineRow(id int, sl timeutil.Slot) []float64 { return cur.row(id, sl) }

// ProfileCursor streams an out-of-core per-slot profile table chunk by
// chunk, windowed over observation slots. Same contract as FineCursor:
// serial Advance, concurrent ProfileRow reads in between. Rows are
// synthesized through the source's profile sampling — the same values the
// resident table stores — so consumers (correlation.ProfileSet copies
// standard-length rows) see byte-identical data.
type ProfileCursor struct {
	chunkCursor
	filler slotProfileFiller // non-nil when the source fills in place
}

// NewProfileCursor returns a streaming cursor over the chunked profile
// table, or nil when the table is resident or absent.
func (c *Compiled) NewProfileCursor(workers *par.Budget) *ProfileCursor {
	if c.profChunk == 0 {
		return nil
	}
	cur := &ProfileCursor{chunkCursor: newChunkCursor(c, workers, c.profChunk, c.samples)}
	cur.filler, _ = c.src.(slotProfileFiller)
	return cur
}

// Advance positions the cursor on the chunk containing observation slot
// obs, compiling it if the window moved. Must not run concurrently with
// ProfileRow.
func (cur *ProfileCursor) Advance(obs timeutil.Slot) {
	c := cur.c
	if !cur.position(obs, c.obsWindow) {
		return
	}
	par.For(cur.workers, c.numVMs, vmRowGrain, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			a := cur.start[id]
			if a < 0 {
				continue
			}
			rows := cur.buf[cur.off[id]*cur.rowLen:]
			for sl := a; sl <= cur.end[id]; sl++ {
				row := rows[int(sl-a)*cur.rowLen : int(sl-a+1)*cur.rowLen]
				if cur.filler != nil {
					cur.filler.FillSlotProfile(row, id, sl)
				} else {
					copy(row, c.src.SlotProfile(id, sl, c.samples))
				}
			}
		}
	})
}

// ProfileRow returns the VM's profile for observation slot sl from the
// current chunk, or nil when uncovered. The row buffer is reused by the
// next Advance; consumers that retain rows must copy them (ProfileSet.Add
// already copies standard-length rows).
func (cur *ProfileCursor) ProfileRow(id int, sl timeutil.Slot) []float64 { return cur.row(id, sl) }
