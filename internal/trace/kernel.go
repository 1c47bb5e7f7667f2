package trace

import (
	"math"

	"geovmp/internal/rng"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// The utilization kernel. Util(id, st) splits cleanly into terms the step
// fixes — time of day, the smooth-noise lattice cells and their ease
// weights, the step's white-noise key — and terms the VM fixes: its noise
// hash prefixes, its day factor and the lattice values of the current
// cells. A StepGrid holds the first half for a list of steps and is shared
// by every VM. The diurnal cosine depends only on the step and the
// service's peak hour, so the compiled fills take one diurnalRow per
// service and slot for every member VM, leaving one cosine per
// service-slot. fillUtilRow carries the VM terms along one VM's row and
// refreshes them only when the day or a lattice cell changes, leaving one
// hash fold per step. Util is the one-step case, so the arithmetic has a
// single definition.

// Smooth-noise lattice periods in seconds, and the hash tags of the
// per-VM noise streams.
const (
	slowCellSec  = 600  // ~10 min smooth load noise
	burstCellSec = 1800 // ~30 min MapReduce burst windows

	tagSlow  = 0x510
	tagFast  = 0xFA57
	tagBurst = 0xB057
)

// gridPoint is the VM-independent part of Util at one step.
type gridPoint struct {
	step                timeutil.Step
	key                 uint64 // rng.Key(step), folded into each VM's white-noise prefix
	day                 int
	hour                float64 // hour of day
	slowCell, burstCell int64
	slowEase, burstEase float64
}

// newGridPoint returns the grid point of step st. burst selects whether
// the burst lattice is filled in: grids shared by all VMs need it, a
// one-step grid for a VM without bursts does not.
func newGridPoint(st timeutil.Step, burst bool) gridPoint {
	sec := st.Seconds()
	day := int(sec / 86400)
	p := gridPoint{
		step: st,
		key:  rng.Key(uint64(st)),
		day:  day,
		hour: sec/3600 - float64(day)*24,
	}
	p.slowCell, p.slowEase = rng.Lattice(sec / slowCellSec)
	if burst {
		p.burstCell, p.burstEase = rng.Lattice(sec / burstCellSec)
	}
	return p
}

// StepGrid is the VM-independent half of utilization synthesis over a list
// of steps. It is read-only once built, so one grid serves any number of
// VMs and goroutines.
type StepGrid struct {
	pts []gridPoint
}

// NewStepGrid builds the grid of the given steps, in order.
func NewStepGrid(steps []timeutil.Step) StepGrid {
	pts := make([]gridPoint, len(steps))
	for i, st := range steps {
		pts[i] = newGridPoint(st, true)
	}
	return StepGrid{pts}
}

// Len returns the number of steps in the grid.
func (g StepGrid) Len() int { return len(g.pts) }

// FillUtil writes src's utilization of VM id at every step of g into
// dst[:g.Len()]: in one row-kernel pass when src is the synthetic
// Workload, through per-step Util otherwise (replays, window views). The
// values are the same either way.
func FillUtil(dst []float64, src Source, id int, g StepGrid) {
	if w, ok := src.(*Workload); ok {
		diurnalRow(dst, w.vms[id].peakHour, g) // overwritten in place
		w.fillUtilRow(dst, id, g, dst)
		return
	}
	for k := range g.pts {
		dst[k] = src.Util(id, g.pts[k].step)
	}
}

// diurnalRow writes the diurnal cosine of a service peaking at hour peak
// at every step of g into dst[:g.Len()] — the one term of Util that every
// member VM of the service shares.
func diurnalRow(dst []float64, peak float64, g StepGrid) {
	for k := range g.pts {
		dst[k] = math.Cos((g.pts[k].hour - peak) / 24 * 2 * math.Pi)
	}
}

// latticeRow caches one VM's smooth-noise lattice values for the current
// cell.
type latticeRow struct {
	prefix uint64
	cell   int64
	a, b   float64
}

func newLatticeRow(prefix uint64, cell int64) latticeRow {
	l := latticeRow{prefix: prefix, cell: cell}
	l.a, l.b = rng.LatticeEnds(prefix, cell)
	return l
}

// at returns rng.SmoothNoise at the grid position (cell, ease) for the
// row's keys.
func (l *latticeRow) at(cell int64, ease float64) float64 {
	if cell != l.cell {
		l.cell = cell
		l.a, l.b = rng.LatticeEnds(l.prefix, cell)
	}
	return rng.Blend(l.a, l.b, ease)
}

// fillUtilRow is the Workload's row kernel: dst[k] = Util(id, step k of g)
// for every step of g, bit for bit, given diurnal = diurnalRow over g for
// the VM's service. diurnal may alias dst: step k reads it before writing.
func (w *Workload) fillUtilRow(dst []float64, id int, g StepGrid, diurnal []float64) {
	pts := g.pts
	if len(pts) == 0 {
		return
	}
	dst = dst[:len(pts)]
	v := w.vms[id]
	fastKey := rng.Hash(v.seed, tagFast)
	slowNoise := newLatticeRow(rng.Hash(v.seed, tagSlow), pts[0].slowCell)
	var burstNoise latticeRow
	if v.burstAmp > 0 {
		burstNoise = newLatticeRow(rng.Hash(v.seed, tagBurst), pts[0].burstCell)
	}
	day := pts[0].day
	dayF := v.dayFactor(day)
	for k := range pts {
		p := &pts[k]
		if p.day != day {
			day = p.day
			dayF = v.dayFactor(day)
		}
		base := v.mean + v.amp*diurnal[k]
		base *= dayF

		slow := (slowNoise.at(p.slowCell, p.slowEase) - 0.5) * 2 * v.slowAmp
		fast := (rng.Unit(rng.FoldKey(fastKey, p.key)) - 0.5) * 2 * v.fastAmp

		u := base + slow + fast
		// Burst windows ~30 min wide covering ~1/4 of the time.
		if v.burstAmp > 0 && burstNoise.at(p.burstCell, p.burstEase) > 0.75 {
			u += v.burstAmp
		}
		dst[k] = units.Clamp(u, 0.02, 1)
	}
}
