package trace

import (
	"geovmp/internal/rng"
	"geovmp/internal/simd"
	"geovmp/internal/timeutil"
)

// The utilization kernel. Util(id, st) splits cleanly into terms the step
// fixes — time of day, the smooth-noise lattice cells and their ease
// weights, the step's white-noise key — and terms the VM fixes: its noise
// hash prefixes, its day factor and the lattice values of the current
// cells. A StepGrid holds the first half for a list of steps, as columns
// cut into segments over which the day and both lattice cells stay fixed,
// and is shared by every VM. The diurnal cosine depends only on the step
// and the service's peak hour, so the compiled fills take one diurnalRow
// per service and slot for every member VM, leaving one cosine per
// service-slot. fillUtilRow takes the VM terms once per segment and runs
// the segment's steps on simd.UtilRow, leaving one hash fold per step.
// Util and FillSlotProfile are the one-step and the profile grid of the
// same kernel, so the arithmetic has a single definition (simd.UtilRowGo,
// which the AVX2 kernel matches bit for bit).

// Smooth-noise lattice periods in seconds, and the hash tags of the
// per-VM noise streams.
const (
	slowCellSec  = 600  // ~10 min smooth load noise
	burstCellSec = 1800 // ~30 min MapReduce burst windows

	tagSlow  = 0x510
	tagFast  = 0xFA57
	tagBurst = 0xB057
)

// StepGrid is the VM-independent half of utilization synthesis over a list
// of steps: per step its hour of day, both ease weights and white-noise
// key, plus the segments over which the day and both lattice cells stay
// fixed. It is read-only once built, so one grid serves any number of VMs
// and goroutines.
type StepGrid struct {
	step                      []timeutil.Step
	hour, slowEase, burstEase []float64
	key                       []uint64  // rng.Key(step), folded into each VM's white-noise prefix
	segs                      []gridSeg // in step order; each ends where the next starts, the last at Len
}

// gridSeg is the start of a grid's segment and the day and lattice cells
// it holds.
type gridSeg struct {
	start               int
	day                 int
	slowCell, burstCell int64
}

// gridOf builds the grid of the given steps over the given backing arrays:
// f holds the three float columns, 3·len(step) values, and segs grows from
// its start (on the heap once full). burst selects whether the burst
// lattice is filled in: grids shared by all VMs need it, a one-step grid
// for a VM without bursts does not. The grid is built in a local and
// returned once, so a caller's stack arrays stay on the stack.
func gridOf(step []timeutil.Step, f []float64, key []uint64, segs []gridSeg, burst bool) StepGrid {
	n := len(step)
	g := StepGrid{
		step: step, hour: f[:n:n], slowEase: f[n : 2*n : 2*n], burstEase: f[2*n : 3*n : 3*n],
		key: key[:n:n], segs: segs[:0],
	}
	for k, st := range step {
		sec := st.Seconds()
		day := int(sec / 86400)
		seg := gridSeg{start: k, day: day}
		seg.slowCell, g.slowEase[k] = rng.Lattice(sec / slowCellSec)
		if burst {
			seg.burstCell, g.burstEase[k] = rng.Lattice(sec / burstCellSec)
		} else {
			g.burstEase[k] = 0
		}
		g.hour[k] = sec/3600 - float64(day)*24
		g.key[k] = rng.Key(uint64(st))
		if last := len(g.segs) - 1; last < 0 || seg.day != g.segs[last].day || seg.slowCell != g.segs[last].slowCell || seg.burstCell != g.segs[last].burstCell {
			g.segs = append(g.segs, seg)
		}
	}
	return g
}

// NewStepGrid builds the grid of the given steps, in order.
func NewStepGrid(steps []timeutil.Step) StepGrid {
	return slotGrids(1, len(steps), func(_ timeutil.Slot, k int) timeutil.Step { return steps[k] })[0]
}

// Len returns the number of steps in the grid.
func (g StepGrid) Len() int { return len(g.step) }

// FillUtil writes src's utilization of VM id at every step of g into
// dst[:g.Len()]: in one row-kernel pass when src is the synthetic
// Workload, through per-step Util otherwise (replays, window views). The
// values are the same either way.
func FillUtil(dst []float64, src Source, id int, g StepGrid) {
	if w, ok := src.(*Workload); ok {
		w.fillRow(dst, id, &g)
		return
	}
	for k, st := range g.step {
		dst[k] = src.Util(id, st)
	}
}

// fillRow is FillUtil over the Workload, with the grid passed by
// reference: Util and FillSlotProfile build theirs on the stack per call.
func (w *Workload) fillRow(dst []float64, id int, g *StepGrid) {
	diurnalRow(dst, w.vms[id].peakHour, g) // overwritten in place
	w.fillUtilRow(dst, id, g, dst)
}

// diurnalRow writes the diurnal cosine of a service peaking at hour peak
// at every step of g into dst[:g.Len()] — the one term of Util that every
// member VM of the service shares.
func diurnalRow(dst []float64, peak float64, g *StepGrid) {
	simd.Diurnal(dst[:len(g.hour)], g.hour, peak)
}

// fillUtilRow is the Workload's row kernel: dst[k] = Util(id, step k of g)
// for every step of g, bit for bit, given diurnal = diurnalRow over g for
// the VM's service. diurnal may alias dst: step k reads it before writing.
// The VM's day factor and lattice ends are taken once per segment, and
// simd.UtilRow runs the segment's steps.
func (w *Workload) fillUtilRow(dst []float64, id int, g *StepGrid, diurnal []float64) {
	if len(g.segs) == 0 {
		return
	}
	v := w.vms[id]
	u := simd.Util{
		Mean: v.mean, Amp: v.amp, SlowAmp: v.slowAmp,
		FastKey: rng.Hash(v.seed, tagFast), FastAmp: v.fastAmp, BurstAmp: v.burstAmp,
	}
	slowKey := rng.Hash(v.seed, tagSlow)
	var burstKey uint64
	if v.burstAmp > 0 {
		burstKey = rng.Hash(v.seed, tagBurst)
	}
	day := g.segs[0].day
	u.DayF = v.dayFactor(day)
	for i, s := range g.segs {
		lo, hi := s.start, len(g.step)
		if i+1 < len(g.segs) {
			hi = g.segs[i+1].start
		}
		if s.day != day {
			day = s.day
			u.DayF = v.dayFactor(day)
		}
		u.SlowA, u.SlowB = rng.LatticeEnds(slowKey, s.slowCell)
		if v.burstAmp > 0 {
			u.BurstA, u.BurstB = rng.LatticeEnds(burstKey, s.burstCell)
		}
		u.Diurnal, u.SlowEase, u.BurstEase, u.Keys = diurnal[lo:hi], g.slowEase[lo:hi], g.burstEase[lo:hi], g.key[lo:hi]
		simd.UtilRow(dst[lo:hi], &u)
	}
}
