package trace

import (
	"math"
	"testing"

	"geovmp/internal/rng"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// oracleUtil is the per-point Util formula the row kernel replaced, kept
// as the independent reference: every term is evaluated from scratch at
// every step.
func oracleUtil(w *Workload, id int, st timeutil.Step) float64 {
	v := w.vms[id]
	sec := st.Seconds()
	day := int(sec / 86400)
	h := sec/3600 - float64(day)*24

	base := v.mean + v.amp*math.Cos((h-v.peakHour)/24*2*math.Pi)
	base *= v.dayFactor(day)

	slow := (rng.SmoothNoise(sec/600, v.seed, 0x510) - 0.5) * 2 * v.slowAmp
	fast := (rng.Noise01(v.seed, 0xFA57, uint64(st)) - 0.5) * 2 * v.fastAmp

	u := base + slow + fast
	if v.burstAmp > 0 {
		if rng.SmoothNoise(sec/1800, v.seed, 0xB057) > 0.75 {
			u += v.burstAmp
		}
	}
	return units.Clamp(u, 0.02, 1)
}

// kernelWorkloads returns a built-in workload holding all four classes and
// a template-calibrated one, over two days so slots straddle a day
// boundary.
func kernelWorkloads(t *testing.T) map[string]*Workload {
	t.Helper()
	builtin := New(Config{Seed: 5, Horizon: timeutil.Days(2), InitialVMs: 60})
	seen := make(map[Class]bool)
	for id := 0; id < builtin.NumVMs(); id++ {
		seen[builtin.VM(id).Class] = true
	}
	for c := Class(0); c < NumClasses; c++ {
		if !seen[c] {
			t.Fatalf("built-in workload has no %v VM", c)
		}
	}
	templates := FitTemplates(New(Config{Seed: 6, Horizon: timeutil.Hours(24), InitialVMs: 40}), 3, 12)
	calibrated := New(Config{Seed: 8, Horizon: timeutil.Days(2), InitialVMs: 40, Templates: templates})
	return map[string]*Workload{"builtin": builtin, "templates": calibrated}
}

// checkRow asserts dst equals the oracle at every step of g, bit for bit.
func checkRow(t *testing.T, name string, w *Workload, id int, g StepGrid, dst []float64) {
	t.Helper()
	for k := 0; k < g.Len(); k++ {
		want := oracleUtil(w, id, g.pts[k].step)
		if math.Float64bits(dst[k]) != math.Float64bits(want) {
			t.Fatalf("%s: vm %d step %d = %v, oracle %v", name, id, g.pts[k].step, dst[k], want)
		}
	}
}

// TestRowKernelMatchesOracle pins Util, the row kernel and every row fill
// built on it to the per-point oracle: both workload families, fine steps
// from 5 s to a whole slot, slots on both sides of the day boundary, a
// grid spanning the boundary, and the strided profile grids.
func TestRowKernelMatchesOracle(t *testing.T) {
	slots := []timeutil.Slot{0, 1, 22, 23, 24, 25, 47}
	for name, w := range kernelWorkloads(t) {
		ids := make([]int, 0, w.NumVMs())
		for id := 0; id < w.NumVMs(); id += 3 {
			ids = append(ids, id)
		}
		for _, dt := range []float64{5, 7, 300, 900, 3600} {
			steps := fineStepsPerSlot(dt)
			grids := fineGrids(w.Slots(), dt, steps)
			row := make([]float64, steps)
			for _, sl := range slots {
				g := grids[sl]
				if g.Len() != steps {
					t.Fatalf("slot %d grid holds %d steps, want %d", sl, g.Len(), steps)
				}
				for _, id := range ids {
					FillUtil(row, w, id, g)
					checkRow(t, name, w, id, g, row)
					for k := 0; k < g.Len(); k++ {
						row[k] = w.Util(id, g.pts[k].step)
					}
					checkRow(t, name+" Util", w, id, g, row)
				}
			}
		}

		// One row across the day boundary, at a step no slot grid uses.
		var cross []timeutil.Step
		for st := timeutil.Slot(23).Start() - 3; st < timeutil.Slot(25).Start()+3; st += 7 {
			cross = append(cross, st)
		}
		g := NewStepGrid(cross)
		row := make([]float64, g.Len())
		for _, id := range ids {
			FillUtil(row, w, id, g)
			checkRow(t, name+" cross-day", w, id, g, row)
		}

		// The strided profile grid, on and off the stack buffer.
		for _, n := range []int{1, 12, 16, 17, 720, 1000} {
			prof := make([]float64, n)
			pts := make([]timeutil.Step, n)
			for _, sl := range slots {
				for i := range pts {
					pts[i] = profileStep(sl, i, n)
				}
				g := NewStepGrid(pts)
				for _, id := range ids {
					w.FillSlotProfile(prof, id, sl)
					checkRow(t, name+" profile", w, id, g, prof)
				}
			}
		}
	}
}

// TestFineRowsMatchOracle checks the compiled fine table, resident and
// streamed, and the uncovered-row fill against the oracle at a 7 s step,
// a period that is not a multiple of the 5 s trace step.
func TestFineRowsMatchOracle(t *testing.T) {
	w := kernelWorkloads(t)["builtin"]
	const dt = 7
	resident := Compile(w, CompileOptions{Samples: 12, FineStepSec: dt})
	streamed := Compile(w, CompileOptions{Samples: 12, FineStepSec: dt, MaxFineTableBytes: 5 * resident.fine.slotPeak})
	cur := streamed.NewFineCursor(nil)
	if resident.FineChunkSlots() != 0 || streamed.FineChunkSlots() != 5 {
		t.Fatal("expected one resident and one streamed fine table")
	}
	row := make([]float64, resident.steps)
	for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
		cur.Advance(sl)
		g := resident.grids[sl]
		for _, id := range w.ActiveVMs(sl) {
			checkRow(t, "resident", w, id, g, resident.FineRow(id, sl))
			checkRow(t, "streamed", w, id, g, cur.FineRow(id, sl))
		}
		// A never-active id reads through FillFineRow, as the simulator's
		// uncovered-row fallback does.
		if sl%6 == 0 {
			id := w.NumVMs() - 1 - int(sl)%w.NumVMs()
			streamed.FillFineRow(row, id, sl)
			checkRow(t, "FillFineRow", w, id, g, row)
		}
	}
}

// TestFillUtilFallsBackToUtil covers sources without a row kernel: a
// window view fills through per-step Util.
func TestFillUtilFallsBackToUtil(t *testing.T) {
	w := kernelWorkloads(t)["builtin"]
	view := Window(w, 20, 8)
	steps := make([]timeutil.Step, 0, 100)
	for st := timeutil.Step(0); len(steps) < 100; st += 13 {
		steps = append(steps, st)
	}
	g := NewStepGrid(steps)
	row := make([]float64, g.Len())
	for _, id := range view.ActiveVMs(0) {
		FillUtil(row, view, id, g)
		for k := range row {
			if want := view.Util(id, g.pts[k].step); math.Float64bits(row[k]) != math.Float64bits(want) {
				t.Fatalf("window vm %d step %d = %v, Util %v", id, g.pts[k].step, row[k], want)
			}
		}
	}
}

// TestFillSlotProfileAllocFree pins the profile fill's stack-resident
// grid: a standard 12-sample profile allocates nothing.
func TestFillSlotProfileAllocFree(t *testing.T) {
	w := kernelWorkloads(t)["builtin"]
	var prof [12]float64
	if n := testing.AllocsPerRun(100, func() { w.FillSlotProfile(prof[:], 3, 24) }); n != 0 {
		t.Fatalf("FillSlotProfile allocated %v times per call", n)
	}
}

// BenchmarkFillUtil compares per-step Util with one row-kernel pass over a
// shared grid, per value, on a day of 400 initial VMs at the paper's 5 s
// step.
func BenchmarkFillUtil(b *testing.B) {
	w := New(Config{Seed: 42, Horizon: timeutil.Days(1), InitialVMs: 400})
	steps := fineStepsPerSlot(timeutil.StepSeconds)
	grids := fineGrids(w.Slots(), timeutil.StepSeconds, steps)
	row := make([]float64, steps)
	bench := func(b *testing.B, fill func(id int, g StepGrid)) {
		values := 0
		for i := 0; i < b.N; i++ {
			for sl, g := range grids {
				for _, id := range w.ActiveVMs(timeutil.Slot(sl)) {
					fill(id, g)
					values += g.Len()
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(values), "ns/value")
	}
	b.Run("util", func(b *testing.B) {
		bench(b, func(id int, g StepGrid) {
			for k := range row {
				row[k] = w.Util(id, g.pts[k].step)
			}
		})
	})
	b.Run("kernel", func(b *testing.B) {
		bench(b, func(id int, g StepGrid) { FillUtil(row, w, id, g) })
	})
}
