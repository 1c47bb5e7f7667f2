package trace

import (
	"slices"

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
	// skipped: it is compiled out-of-core, streamed through
	// FineCursor/ProfileCursor in the widest slot windows whose peak bytes
	// fit the budget (at least one slot), so the table holds at most one
	// window per open cursor plus two idle windows — the cursors of
	// concurrent runs share the windows they are on, and an idle window is
	// kept, to be read again or laid out over, rather than dropped — while
	// the values stay byte-identical to the resident table. Volumes always
	// materialize.
	MaxFineTableBytes int64
	// Workers optionally lends extra goroutines to the compilation: the
	// fine and profile tables (by VM, or by service for the synthetic
	// Workload) and the per-slot volume lists are sharded (each shard
	// writes disjoint rows) and the active-window scan reduces per-slot
	// shards in fixed order, so the compiled tables are byte-identical
	// at any worker count. Requires src to be safe for
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
// VM-slot, each bounded by CompileOptions.MaxFineTableBytes. A streamed
// table is the one piece of shared state that changes after Compile: its
// windows, which the cursors of concurrent runs share (see windows).
type Compiled struct {
	src     Source
	synth   Source // what the tables are filled from: src, or the Workload it windows
	slots   timeutil.Slot
	numVMs  int
	samples int
	dt      float64
	steps   int // fine steps per slot

	images []units.DataSize

	// The fine and profile tables (see table): resident ones span the
	// horizon and are filled here; a streamed one's windows are filled
	// from the retained active windows and step grids by the cursors of
	// the runs reading it, once for all the runs positioned on a window
	// at the same time.
	fine, prof  table
	first, last []timeutil.Slot // per-VM active windows
	grids       []StepGrid      // per slot, the fine loop's step grid
	profGrids   []StepGrid      // per slot, the profile's grid (nil: per-VM profile fill)
	profToFine  [][]int         // per slot, see profileToFine (nil: no gather)

	vols    [][]VolumeEntry // realized, per slot
	planned [][]VolumeEntry // PlannedVolumes(obsSlot(sl), sl), per slot
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

// slotGrids builds one grid per slot, holding step(sl, k) for k < n, its
// columns over backing arrays shared by all slots.
func slotGrids(slots timeutil.Slot, n int, step func(sl timeutil.Slot, k int) timeutil.Step) []StepGrid {
	total := int(slots) * n
	steps := make([]timeutil.Step, total)
	f := make([]float64, 3*total)
	key := make([]uint64, total)
	grids := make([]StepGrid, slots)
	for sl := range grids {
		lo, hi := sl*n, (sl+1)*n
		for k := range n {
			steps[lo+k] = step(timeutil.Slot(sl), k)
		}
		grids[sl] = gridOf(steps[lo:hi], f[3*lo:3*hi], key[lo:hi], nil, true)
	}
	return grids
}

// fineGrids builds the per-slot step grids of the simulator's fine loop,
// replicating its step derivation bit for bit — including its
// floating-point time accumulation, which restarts at 0 every slot.
func fineGrids(slots timeutil.Slot, dt float64, steps int) []StepGrid {
	offs := make([]float64, 0, steps)
	for t := 0.0; t < timeutil.SlotSeconds; t += dt {
		offs = append(offs, t)
	}
	return slotGrids(slots, steps, func(sl timeutil.Slot, k int) timeutil.Step {
		return timeutil.Step(int64(sl.Seconds()+offs[k]) / timeutil.StepSeconds)
	})
}

// profileToFine maps, per slot, each profile sample index to the fine-row
// index that reads the same Util step (the profile grid mirrors
// Workload.FillSlotProfile), or returns nil when any sample of any slot
// lies outside the fine grid.
func profileToFine(grids []StepGrid, samples int) [][]int {
	out := make([][]int, len(grids))
	for sl, g := range grids {
		out[sl] = make([]int, samples)
		for i := range out[sl] {
			want := profileStep(timeutil.Slot(sl), i, samples)
			k := slices.Index(g.step, want)
			if k < 0 {
				return nil
			}
			out[sl][i] = k
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
		synth:   src,
		slots:   src.Slots(),
		numVMs:  src.NumVMs(),
		samples: opt.Samples,
		dt:      opt.FineStepSec,
	}
	slots := int(c.slots)
	// A start-0 window over a Workload reads the Workload's own values at
	// every in-window step, so its tables fill through the row kernel the
	// view lacks.
	if v, ok := src.(*windowSource); ok && v.start == 0 {
		if w, ok := v.src.(*Workload); ok {
			c.synth = w
		}
	}

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
	type span struct{ first, last []timeutil.Slot }
	par.Ordered(opt.Workers, slots, windowSlotGrain, func(lo, hi int) span {
		w := span{
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
	}, func(w span) {
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

	// The tables cover each VM's windows: fine rows its active slots,
	// profile rows its observation slots. The controller acting at sl
	// observes obsSlot(sl), so a VM active over [first, last] needs
	// profiles for [obsSlot(first), obsSlot(last)]. Each table is resident
	// when it fits the budget and streamed otherwise, its window sized by
	// its own busiest slot.
	c.first, c.last = first, last
	c.steps = fineStepsPerSlot(c.dt)
	c.grids = fineGrids(c.slots, c.dt, c.steps)
	c.initTable(&c.fine, c.steps, opt.MaxFineTableBytes, opt.Workers)
	if c.samples > 0 {
		// Where the profile's sampling grid is a subset of a resident fine
		// row's — the common case for the synthetic workload, whose
		// profiles are Util sampled at strided steps — profile rows are
		// gathered from the fine table instead of re-synthesizing the
		// trace. Otherwise they are synthesized service-major over
		// per-slot profile grids.
		if _, utilSampled := c.synth.(*Workload); utilSampled {
			if !c.streamed(&c.fine) {
				c.profToFine = profileToFine(c.grids, c.samples)
			}
			if c.profToFine == nil {
				c.profGrids = slotGrids(c.slots, c.samples, func(sl timeutil.Slot, i int) timeutil.Step {
					return profileStep(sl, i, c.samples)
				})
			}
		}
		c.initTable(&c.prof, c.samples, opt.MaxFineTableBytes, opt.Workers)
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

// fillFine writes the VM's fine rows for slots a..b into dst, one row of
// c.steps values per slot.
func (c *Compiled) fillFine(dst []float64, id int, a, b timeutil.Slot) {
	for sl := a; sl <= b; sl++ {
		FillUtil(dst[int(sl-a)*c.steps:], c.synth, id, c.grids[sl])
	}
}

// fillProfile writes the VM's profiles for observation slots a..b into
// dst, one row of c.samples values per slot, gathered from the resident
// fine table where profToFine is set and the VM is active in the slot, and
// synthesized through the source's profile sampling otherwise — the same
// values either way.
func (c *Compiled) fillProfile(dst []float64, id int, a, b timeutil.Slot) {
	filler, _ := c.synth.(slotProfileFiller)
	for sl := a; sl <= b; sl++ {
		row := dst[int(sl-a)*c.samples : int(sl-a+1)*c.samples]
		if c.profToFine != nil {
			if fr := c.FineRow(id, sl); fr != nil {
				for i, k := range c.profToFine[sl] {
					row[i] = fr[k]
				}
				continue
			}
		}
		if filler != nil {
			filler.FillSlotProfile(row, id, sl)
		} else {
			copy(row, c.synth.SlotProfile(id, sl, c.samples))
		}
	}
}

// FillFineRow synthesizes the VM's utilization at every fine step of slot
// sl into dst[:steps] (see FineParams): the values FineRow would hold, for
// (id, sl) pairs the table does not cover. It requires a slot within the
// compiled horizon.
func (c *Compiled) FillFineRow(dst []float64, id int, sl timeutil.Slot) {
	FillUtil(dst, c.synth, id, c.grids[sl])
}

// initTable sizes t, a table of rowLen-float rows over the VMs' windows:
// its footprints and the window width budget gives it (see widthFor). A
// streamed table gets its shared windows; a resident one gets its one
// window over the horizon, filled here.
func (c *Compiled) initTable(t *table, rowLen int, budget int64, workers *par.Budget) {
	cover, _, _ := c.rowSource(t)
	// The busiest slot comes from a diff array over the windows.
	var rows, peak int64
	diff := make([]int64, c.slots+1)
	for id := 0; id < c.numVMs; id++ {
		if a, b := cover(id); a <= b {
			diff[a]++
			diff[b+1]--
			rows += int64(b - a + 1)
		}
	}
	var run int64
	for _, d := range diff {
		run += d
		peak = max(peak, run)
	}
	*t = table{rowLen: rowLen, bytes: rows * int64(rowLen) * 8, slotPeak: peak * int64(rowLen) * 8}
	t.width = t.widthFor(budget, c.slots)
	switch {
	case c.streamed(t):
		t.shared = &windows{live: map[timeutil.Slot]*window{}}
	case t.width > 0:
		t.res = c.layout(t, nil, 0)
		t.res.fill.Join(workers)
		t.res.fill = nil // done: no cursor joins a resident fill
	}
}

// tablesCompatible reports whether the receiver's tables are what Compile
// would produce under opt's budget. Without this check the
// already-compiled fast path would hand a budget-capped (streamed) table
// back to a caller that asked for a larger or unbounded one.
func (c *Compiled) tablesCompatible(opt CompileOptions) bool {
	return c.fine.width == c.fine.widthFor(opt.MaxFineTableBytes, c.slots) &&
		c.prof.width == c.prof.widthFor(opt.MaxFineTableBytes, c.slots)
}

// Shard grains of Compile's parallel passes (see internal/par: fixed
// constants keep shard boundaries a pure function of the table sizes).
// Window shards are coarse because each allocates per-VM merge buffers;
// volume shards are fine because one slot synthesizes a whole entry list.
const (
	windowSlotGrain = 32
	vmRowGrain      = 64
	serviceGrain    = 16 // ~64 member VMs at the default five per service
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
// at and the number of steps per slot. A streamed table reports its steps
// here but serves rows through a FineCursor, not FineRow.
func (c *Compiled) FineParams() (dt float64, steps int) { return c.dt, c.steps }

// FineChunkSlots returns the fine table's streamed window width in slots
// (0 when the table is resident).
func (c *Compiled) FineChunkSlots() int {
	if c.streamed(&c.fine) {
		return c.fine.width
	}
	return 0
}

// TableBytes returns the resident cost the full fine and profile tables
// would have — what an unbounded compile allocates, and what the streamed
// tables avoid.
func (c *Compiled) TableBytes() (fine, prof int64) { return c.fine.bytes, c.prof.bytes }

// FineRow returns the VM's utilization at every fine step of slot sl — row
// k is Util at the k-th iteration of the simulator's fine loop — or nil
// when the resident table does not cover (id, sl), or the table is
// streamed. The row is shared and read-only.
func (c *Compiled) FineRow(id int, sl timeutil.Slot) []float64 { return c.fine.res.row(id, sl) }

// ProfileRow returns the VM's compiled profile for slot sl, or nil when the
// resident table does not cover (id, sl), or the table is streamed or
// absent. The row is shared and read-only — hand it to a
// correlation.ProfileSet without copying.
func (c *Compiled) ProfileRow(id int, sl timeutil.Slot) []float64 { return c.prof.res.row(id, sl) }

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
