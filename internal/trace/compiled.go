package trace

import (
	"geovmp/internal/par"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// CompileOptions parameterizes Compile. Zero values select the simulator's
// defaults, so a zero options value produces a trace the default scenario
// consumes entirely from the compiled tables.
type CompileOptions struct {
	// Samples is the per-slot downsampled profile length (default 12, the
	// simulator's ProfileSamples default; negative compiles no profiles).
	Samples int
	// FineStepSec is the green-controller period the per-slot utilization
	// rows are sampled at (default 5 s, the paper's). The rows reproduce the
	// simulator's fine loop exactly: row k holds Util at the step of the
	// k-th iteration of `for t := 0.0; t < 3600; t += FineStepSec`.
	FineStepSec float64
	// MaxFineTableBytes bounds each resident utilization table — fine
	// steps and per-slot profiles alike (any non-positive value selects
	// the 256 MiB default). A table that would exceed the budget is not
	// skipped: it is compiled out-of-core, streamed in fixed slot-range
	// chunks through a FineCursor/ProfileCursor so peak memory is bounded
	// by one chunk window while the values stay byte-identical to the
	// in-core path. Volumes always materialize.
	MaxFineTableBytes int64
	// ChunkSlots overrides the streamed chunk width in slots for tables
	// that exceed MaxFineTableBytes. Zero derives the widest window whose
	// peak resident bytes fit the budget (at least one slot).
	ChunkSlots int
	// Workers optionally lends extra goroutines to the compilation: the
	// per-VM fine and profile tables and the per-slot volume lists are
	// sharded (each shard writes disjoint rows) and the active-window scan
	// reduces per-slot shards in fixed order, so the compiled tables are
	// byte-identical at any worker count. Requires src to be safe for
	// concurrent readers — the contract workloads already carry for
	// parallel sweeps. Nil compiles serially.
	Workers *par.Budget
}

const defaultMaxFineTableBytes = 256 << 20

func (o *CompileOptions) applyDefaults() {
	if o.Samples == 0 {
		o.Samples = 12
	}
	if o.FineStepSec <= 0 {
		o.FineStepSec = timeutil.StepSeconds
	}
	if o.MaxFineTableBytes <= 0 {
		o.MaxFineTableBytes = defaultMaxFineTableBytes
	}
}

// Compiled is a workload materialized into dense, immutable flat arrays:
// per-slot per-VM downsampled profiles, per-slot fine-step utilization rows,
// and per-slot realized and planned volume entry lists. It implements
// Source, returns byte-identical values to the source it was compiled from,
// and is safe for any number of concurrent readers — the experiment engine
// compiles a workload once per scenario x seed and shares it across every
// policy run of that cell column, so policies pay the synthesis cost once
// instead of once per run.
//
// Memory is proportional to active VM-slots: profiles cost
// Samples x 8 bytes per VM-slot and the fine table FineSteps x 8 bytes per
// VM-slot (bounded by CompileOptions.MaxFineTableBytes).
type Compiled struct {
	src     Source
	slots   timeutil.Slot
	numVMs  int
	samples int
	dt      float64
	steps   int // fine steps per slot

	images []units.DataSize

	profStart []timeutil.Slot
	prof      [][]float64 // per VM, rows flattened at samples per slot

	fineStart []timeutil.Slot
	fine      [][]float64 // per VM, rows flattened at steps per slot

	vols    [][]VolumeEntry // realized, per slot
	planned [][]VolumeEntry // PlannedVolumes(obsSlot(sl), sl), per slot

	// Out-of-core state. fineChunk/profChunk are the streamed chunk
	// widths in slots for tables that exceeded the budget (0 when the
	// table is resident, or absent for profiles); cursors compile windows
	// on demand from the retained active windows and step grids.
	fineChunk   int
	profChunk   int
	first, last []timeutil.Slot // per-VM active windows (chunked modes)
	grids       []StepGrid      // per slot, the fine loop's step grid

	// Footprints recorded for the already-compiled fast path: what the
	// full tables would cost resident, and the peak one-slot cost that
	// sizes chunk windows.
	fineBytes, fineSlotPeak int64
	profBytes, profSlotPeak int64
}

var _ Source = (*Compiled)(nil)

// slotProfileFiller is implemented by sources that can write a profile into
// a caller-owned buffer; Compile uses it to avoid one allocation per
// VM-slot.
type slotProfileFiller interface {
	FillSlotProfile(dst []float64, id int, sl timeutil.Slot)
}

// obsSlot returns the slot whose observations drive the controllers acting
// at sl: the previous one, with slot 0 bootstrapping from itself.
func obsSlot(sl timeutil.Slot) timeutil.Slot {
	if sl > 0 {
		return sl - 1
	}
	return 0
}

// fineStepsPerSlot counts the iterations of the simulator's fine loop for a
// step of dt seconds.
func fineStepsPerSlot(dt float64) int {
	k := 0
	for t := 0.0; t < timeutil.SlotSeconds; t += dt {
		k++
	}
	return k
}

// fineGrids builds the per-slot step grids of the simulator's fine loop,
// replicating its step derivation bit for bit — including its
// floating-point time accumulation — over one shared backing array.
func fineGrids(slots timeutil.Slot, dt float64, steps int) []StepGrid {
	pts := make([]gridPoint, 0, int(slots)*steps)
	grids := make([]StepGrid, slots)
	for sl := range grids {
		lo := len(pts)
		start := timeutil.Slot(sl).Seconds()
		for t := 0.0; t < timeutil.SlotSeconds; t += dt {
			pts = append(pts, newGridPoint(timeutil.Step(int64(start+t)/timeutil.StepSeconds), true))
		}
		grids[sl] = StepGrid{pts[lo:len(pts):len(pts)]}
	}
	return grids
}

// profileToFine maps, per slot, each profile sample index to the fine-row
// index that reads the same Util step (the profile grid mirrors
// Workload.FillSlotProfile), or nil for slots where any sample lies outside
// the fine grid.
func profileToFine(grids []StepGrid, samples int) [][]int {
	out := make([][]int, len(grids))
	for sl, g := range grids {
		m := make([]int, samples)
		ok := true
		for i := 0; i < samples; i++ {
			want := profileStep(timeutil.Slot(sl), i, samples)
			k := -1
			for j, p := range g.pts {
				if p.step == want {
					k = j
					break
				}
			}
			if k < 0 {
				ok = false
				break
			}
			m[i] = k
		}
		if ok {
			out[sl] = m
		}
	}
	return out
}

// Compile materializes src into flat per-slot tables. Compiling an already
// compiled trace with compatible options — including the fine-table
// configuration, so a budget-capped table is never handed to a caller that
// asked for a larger or unbounded one — returns it unchanged.
func Compile(src Source, opt CompileOptions) *Compiled {
	opt.applyDefaults()
	if c, ok := src.(*Compiled); ok {
		if c.samples == opt.Samples && c.dt == opt.FineStepSec && c.tablesCompatible(opt) {
			return c
		}
		src = c.src // recompile from the original source
	}
	c := &Compiled{
		src:     src,
		slots:   src.Slots(),
		numVMs:  src.NumVMs(),
		samples: opt.Samples,
		dt:      opt.FineStepSec,
	}
	slots := int(c.slots)

	c.images = make([]units.DataSize, c.numVMs)
	for id := range c.images {
		c.images[id] = src.Image(id)
	}

	// Active windows from the per-slot active lists. Slot ranges are
	// scanned on concurrent shards and merged in ascending shard order; the
	// merge is a min/max fold, associative over the slot split, so the
	// windows equal the serial scan's exactly.
	first := make([]timeutil.Slot, c.numVMs)
	last := make([]timeutil.Slot, c.numVMs)
	for id := range first {
		first[id] = -1
	}
	type window struct{ first, last []timeutil.Slot }
	par.Ordered(opt.Workers, slots, windowSlotGrain, func(lo, hi int) window {
		w := window{
			first: make([]timeutil.Slot, c.numVMs),
			last:  make([]timeutil.Slot, c.numVMs),
		}
		for id := range w.first {
			w.first[id] = -1
		}
		for sl := timeutil.Slot(lo); sl < timeutil.Slot(hi); sl++ {
			for _, id := range src.ActiveVMs(sl) {
				if id < 0 || id >= c.numVMs {
					continue
				}
				if w.first[id] < 0 {
					w.first[id] = sl
				}
				w.last[id] = sl
			}
		}
		return w
	}, func(w window) {
		for id := range first {
			if w.first[id] < 0 {
				continue
			}
			if first[id] < 0 {
				first[id] = w.first[id]
			}
			last[id] = w.last[id]
		}
	})

	// Fine-step utilization rows over each VM's active window, within the
	// memory budget. The per-slot step grids are built once, shared by
	// every VM's row fill and retained for the cursors. Past the budget the
	// table goes out-of-core: the active windows and step grids are
	// retained and a FineCursor compiles slot-range chunks on demand.
	steps := fineStepsPerSlot(c.dt)
	var winPeak int64 // most VM windows overlapping any one slot
	{
		diff := make([]int64, slots+1)
		for id := 0; id < c.numVMs; id++ {
			if first[id] >= 0 {
				diff[first[id]]++
				diff[last[id]+1]--
			}
		}
		var run int64
		for _, d := range diff {
			run += d
			if run > winPeak {
				winPeak = run
			}
		}
	}
	for id := 0; id < c.numVMs; id++ {
		if first[id] >= 0 {
			c.fineBytes += int64(last[id]-first[id]+1) * int64(steps) * 8
		}
	}
	c.fineSlotPeak = winPeak * int64(steps) * 8
	c.steps = steps
	c.grids = fineGrids(c.slots, c.dt, steps)
	if c.fineBytes <= opt.MaxFineTableBytes {
		c.fineStart = make([]timeutil.Slot, c.numVMs)
		c.fine = make([][]float64, c.numVMs)
		// Each VM owns its rows — disjoint writes, so the sharded fill is
		// byte-identical to the serial one.
		par.For(opt.Workers, c.numVMs, vmRowGrain, func(lo, hi int) {
			for id := lo; id < hi; id++ {
				if first[id] < 0 {
					continue
				}
				c.fineStart[id] = first[id]
				c.fine[id] = make([]float64, int(last[id]-first[id]+1)*steps)
				c.fillFineRows(c.fine[id], id, first[id], last[id])
			}
		})
	} else {
		c.fineChunk = chunkWidth(opt, c.fineSlotPeak, c.slots)
	}
	// Window slices are tiny (two slots per VM); cursors need them, and
	// the fast path consults the recorded footprints.
	c.first, c.last = first, last

	// Profiles: the controller acting at sl observes obsSlot(sl), so a VM
	// active over [first, last] needs rows for [max(0, first-1), last-1]
	// (slot 0 observes itself, which that window covers). Where the
	// profile's sampling grid is a subset of a compiled fine row's — the
	// common case for the synthetic workload, whose profiles are Util
	// sampled at strided steps — the row is assembled from the fine table
	// instead of re-synthesizing the trace.
	if c.samples > 0 {
		for id := 0; id < c.numVMs; id++ {
			if first[id] >= 0 {
				c.profBytes += int64(obsSlot(last[id])-obsSlot(first[id])+1) * int64(c.samples) * 8
			}
		}
		c.profSlotPeak = winPeak * int64(c.samples) * 8
		if c.profBytes > opt.MaxFineTableBytes {
			// Out-of-core: a ProfileCursor synthesizes chunk windows on
			// demand; rows come out byte-identical because both paths
			// evaluate the source's profile at the same sample steps.
			c.profChunk = chunkWidth(opt, c.profSlotPeak, c.slots)
		} else {
			filler, _ := src.(slotProfileFiller)
			var profToFine [][]int
			if _, utilSampled := src.(*Workload); utilSampled && c.fine != nil {
				profToFine = profileToFine(c.grids, c.samples)
			}
			c.profStart = make([]timeutil.Slot, c.numVMs)
			c.prof = make([][]float64, c.numVMs)
			// Per-VM rows again; the fine table above is complete before
			// this pass starts, so its reads are safe from any shard.
			par.For(opt.Workers, c.numVMs, vmRowGrain, func(lo, hi int) {
				for id := lo; id < hi; id++ {
					if first[id] < 0 {
						continue
					}
					start := obsSlot(first[id])
					end := obsSlot(last[id])
					c.profStart[id] = start
					rows := make([]float64, int(end-start+1)*c.samples)
					c.prof[id] = rows
					for sl := start; sl <= end; sl++ {
						row := rows[int(sl-start)*c.samples : int(sl-start+1)*c.samples]
						if profToFine != nil && profToFine[sl] != nil {
							if fr := c.FineRow(id, sl); fr != nil {
								for i, k := range profToFine[sl] {
									row[i] = fr[k]
								}
								continue
							}
						}
						if filler != nil {
							filler.FillSlotProfile(row, id, sl)
						} else {
							copy(row, src.SlotProfile(id, sl, c.samples))
						}
					}
				}
			})
		}
	}

	// Volume entry lists, realized and planned. Slot 0's planned list is
	// still asked of the source — PlannedVolumes(0, 0) need not equal
	// Volumes(0) for every implementation (Replay filters by lifetime).
	c.vols = make([][]VolumeEntry, slots)
	c.planned = make([][]VolumeEntry, slots)
	par.For(opt.Workers, slots, volumeSlotGrain, func(lo, hi int) {
		for sl := timeutil.Slot(lo); sl < timeutil.Slot(hi); sl++ {
			c.vols[sl] = src.Volumes(sl)
			c.planned[sl] = src.PlannedVolumes(obsSlot(sl), sl)
		}
	})
	return c
}

// fillFineRows writes the VM's fine rows for slots a..b into dst, one row
// of c.steps values per slot: the row fill the resident table and the
// FineCursor share.
func (c *Compiled) fillFineRows(dst []float64, id int, a, b timeutil.Slot) {
	for sl := a; sl <= b; sl++ {
		FillUtil(dst[int(sl-a)*c.steps:], c.src, id, c.grids[sl])
	}
}

// FillFineRow synthesizes the VM's utilization at every fine step of slot
// sl into dst[:steps] (see FineParams): the values FineRow would hold, for
// (id, sl) pairs the table does not cover. It requires a slot within the
// compiled horizon.
func (c *Compiled) FillFineRow(dst []float64, id int, sl timeutil.Slot) {
	FillUtil(dst, c.src, id, c.grids[sl])
}

// chunkWidth sizes the streamed window of an out-of-core table: the widest
// slot range whose peak resident bytes fit the budget, at least one slot,
// unless CompileOptions.ChunkSlots pins it explicitly.
func chunkWidth(opt CompileOptions, slotPeakBytes int64, slots timeutil.Slot) int {
	w := opt.ChunkSlots
	if w <= 0 {
		if slotPeakBytes <= 0 {
			slotPeakBytes = 1
		}
		w = int(opt.MaxFineTableBytes / slotPeakBytes)
	}
	if w < 1 {
		w = 1
	}
	if slots > 0 && timeutil.Slot(w) > slots {
		w = int(slots)
	}
	return w
}

// tablesCompatible reports whether the receiver's materialized tables are
// what Compile would produce under opt's fine-table configuration. Without
// this check the already-compiled fast path would hand a budget-capped (or
// chunked) table back to a caller that asked for a larger or unbounded
// one.
func (c *Compiled) tablesCompatible(opt CompileOptions) bool {
	if c.fineBytes <= opt.MaxFineTableBytes { // resident fine table
		if c.fine == nil {
			return false
		}
	} else if c.fineChunk == 0 || c.fineChunk != chunkWidth(opt, c.fineSlotPeak, c.slots) {
		return false // not a chunk-streamed table of the same geometry
	}
	if c.samples <= 0 {
		return true
	}
	if c.profBytes > opt.MaxFineTableBytes {
		return c.profChunk == chunkWidth(opt, c.profSlotPeak, c.slots)
	}
	return c.prof != nil
}

// Shard grains of Compile's parallel passes (see internal/par: fixed
// constants keep shard boundaries a pure function of the table sizes).
// Window shards are coarse because each allocates per-VM merge buffers;
// volume shards are fine because one slot synthesizes a whole entry list.
const (
	windowSlotGrain = 32
	vmRowGrain      = 64
	volumeSlotGrain = 4
)

// NumVMs implements Source.
func (c *Compiled) NumVMs() int { return c.numVMs }

// Slots implements Source.
func (c *Compiled) Slots() timeutil.Slot { return c.slots }

// Image implements Source from the materialized image table.
func (c *Compiled) Image(id int) units.DataSize {
	if id < 0 || id >= c.numVMs {
		return 0
	}
	return c.images[id]
}

// ActiveVMs implements Source (the underlying source's index is already
// materialized).
func (c *Compiled) ActiveVMs(sl timeutil.Slot) []int { return c.src.ActiveVMs(sl) }

// Util implements Source by delegating to the underlying source: arbitrary
// step queries stay exact whether or not the fine table covers them. The
// simulator's fine loop reads FineRow instead.
func (c *Compiled) Util(id int, st timeutil.Step) float64 { return c.src.Util(id, st) }

// Samples returns the compiled per-slot profile length.
func (c *Compiled) Samples() int { return c.samples }

// FineParams returns the fine-loop period the utilization rows were sampled
// at and the number of steps per slot. A chunk-streamed table reports its
// steps here but serves rows through a FineCursor, not FineRow.
func (c *Compiled) FineParams() (dt float64, steps int) { return c.dt, c.steps }

// FineChunked reports whether the fine table is out-of-core: rows are
// served by a per-run FineCursor instead of FineRow, in windows of
// FineChunkSlots slots.
func (c *Compiled) FineChunked() bool { return c.fineChunk > 0 }

// ProfileChunked reports whether the per-slot profile table is out-of-core:
// rows are served by a per-run ProfileCursor instead of ProfileRow.
func (c *Compiled) ProfileChunked() bool { return c.profChunk > 0 }

// FineChunkSlots returns the fine table's streamed window width in slots
// (0 when the table is resident).
func (c *Compiled) FineChunkSlots() int { return c.fineChunk }

// TableBytes returns the resident cost the full fine and profile tables
// would have — what an unbounded compile allocates, and what the chunked
// modes avoid.
func (c *Compiled) TableBytes() (fine, prof int64) { return c.fineBytes, c.profBytes }

// FineRow returns the VM's utilization at every fine step of slot sl — row
// k is Util at the k-th iteration of the simulator's fine loop — or nil
// when the table does not cover (id, sl). The row is shared and read-only.
func (c *Compiled) FineRow(id int, sl timeutil.Slot) []float64 {
	if c.fine == nil || id < 0 || id >= c.numVMs || c.fine[id] == nil {
		return nil
	}
	off := int(sl - c.fineStart[id])
	if off < 0 || (off+1)*c.steps > len(c.fine[id]) {
		return nil
	}
	return c.fine[id][off*c.steps : (off+1)*c.steps]
}

// ProfileRow returns the VM's compiled profile for slot sl, or nil when the
// table does not cover (id, sl). The row is shared and read-only — hand it
// to a correlation.ProfileSet without copying.
func (c *Compiled) ProfileRow(id int, sl timeutil.Slot) []float64 {
	if c.samples <= 0 || c.prof == nil || id < 0 || id >= c.numVMs || c.prof[id] == nil {
		return nil
	}
	off := int(sl - c.profStart[id])
	if off < 0 || (off+1)*c.samples > len(c.prof[id]) {
		return nil
	}
	return c.prof[id][off*c.samples : (off+1)*c.samples]
}

// SlotProfile implements Source. Covered (id, slot, n=Samples) queries copy
// the compiled row (callers own the result, per the Source contract);
// anything else falls through to the underlying source.
func (c *Compiled) SlotProfile(id int, sl timeutil.Slot, n int) []float64 {
	if n == c.samples {
		if row := c.ProfileRow(id, sl); row != nil {
			out := make([]float64, n)
			copy(out, row)
			return out
		}
	}
	return c.src.SlotProfile(id, sl, n)
}

// Volumes implements Source. The slice is shared; callers must not modify
// it.
func (c *Compiled) Volumes(sl timeutil.Slot) []VolumeEntry {
	if sl < 0 || int(sl) >= len(c.vols) {
		return nil
	}
	return c.vols[sl]
}

// PlannedVolumes implements Source. The simulator's pattern — obs one slot
// behind act — is served from the compiled table; other queries fall
// through to the underlying source.
func (c *Compiled) PlannedVolumes(obs, act timeutil.Slot) []VolumeEntry {
	if act >= 0 && int(act) < len(c.planned) && obs == obsSlot(act) {
		return c.planned[act]
	}
	return c.src.PlannedVolumes(obs, act)
}
