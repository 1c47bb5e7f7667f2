package trace

import (
	"fmt"
	"math"
	"testing"

	"geovmp/internal/par"
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
		want := oracleUtil(w, id, g.step[k])
		if math.Float64bits(dst[k]) != math.Float64bits(want) {
			t.Fatalf("%s: vm %d step %d = %v, oracle %v", name, id, g.step[k], dst[k], want)
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
						row[k] = w.Util(id, g.step[k])
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

// serviceMajorWorkloads returns the two kernelWorkloads families and a
// Phases workload at 200+ short-lived VMs over 26 hours, so the
// service-major fill spans several service shards and slots on both sides
// of a day boundary while the tables stay small.
func serviceMajorWorkloads(t *testing.T) map[string]*Workload {
	t.Helper()
	templates := FitTemplates(New(Config{Seed: 6, Horizon: timeutil.Hours(24), InitialVMs: 40}), 3, 12)
	cfg := func(seed uint64) Config {
		return Config{Seed: seed, Horizon: timeutil.Hours(26), InitialVMs: 40, ArrivalPerSlot: 8, MeanLifeSlots: 6}
	}
	builtin, calibrated, phased := cfg(5), cfg(8), cfg(9)
	calibrated.Templates = templates
	phased.Phases = []PhaseMix{
		{FromSlot: 8, Weights: []float64{0, 1, 0, 0}},
		{FromSlot: 20, Weights: []float64{0, 0, 0.5, 0.5}},
	}
	ws := map[string]*Workload{"builtin": New(builtin), "templates": New(calibrated), "phases": New(phased)}
	for name, w := range ws {
		if w.NumVMs() < 200 || w.NumServices() <= serviceGrain {
			t.Fatalf("%s: %d VMs in %d services fill a single shard", name, w.NumVMs(), w.NumServices())
		}
	}
	return ws
}

// sameRow asserts two rows of (id, sl) are both present and equal bit for
// bit.
func sameRow(t *testing.T, name string, id int, sl timeutil.Slot, want, got []float64) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: vm %d slot %d row missing (want nil %v, got nil %v)", name, id, sl, want == nil, got == nil)
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: vm %d slot %d [%d] = %v, want %v", name, id, sl, k, got[k], want[k])
		}
	}
}

// sameRows asserts got serves every row the simulator reads over got's
// horizon — each active VM's fine row and its observation-slot profile —
// equal to want's, reading got through cursors on the given workers.
func sameRows(t *testing.T, name string, want, got *Compiled, workers *par.Budget) {
	t.Helper()
	wf, wp := want.NewFineCursor(nil), want.NewProfileCursor(nil)
	gf, gp := got.NewFineCursor(workers), got.NewProfileCursor(workers)
	for sl := timeutil.Slot(0); sl < got.Slots(); sl++ {
		obs := obsSlot(sl)
		wf.Advance(sl)
		gf.Advance(sl)
		wp.Advance(obs)
		gp.Advance(obs)
		for _, id := range got.ActiveVMs(sl) {
			sameRow(t, name+" fine", id, sl, wf.FineRow(id, sl), gf.FineRow(id, sl))
			sameRow(t, name+" profile", id, obs, wp.ProfileRow(id, obs), gp.ProfileRow(id, obs))
		}
	}
}

// checkTablesOracle asserts every resident fine and profile row of c
// equals the oracle.
func checkTablesOracle(t *testing.T, name string, w *Workload, c *Compiled) {
	t.Helper()
	prof := make([]timeutil.Step, c.samples)
	for sl := timeutil.Slot(0); sl < c.slots; sl++ {
		for i := range prof {
			prof[i] = profileStep(sl, i, c.samples)
		}
		pg := NewStepGrid(prof)
		for _, id := range w.ActiveVMs(sl) {
			checkRow(t, name+" fine", w, id, c.grids[sl], c.FineRow(id, sl))
			if row := c.ProfileRow(id, sl); row != nil {
				checkRow(t, name+" profile", w, id, pg, row)
			}
		}
	}
}

// TestServiceMajorFillMatchesOracle is the service-major fill's oracle
// twin: the resident tables match the per-point oracle, and every table
// compiled under budgets of 1, 2 and 3 busiest-slot footprints (streamed)
// or none (resident), on nil, 2 and 8 workers, serves the same rows — at
// 5 s steps (a streamed fine table beside a service-major profile table),
// 300 s (profiles gathered from the resident fine table, or both tables
// streamed) and 900 s (profile samples off the fine grid, so profiles are
// synthesized service-major even beside a resident fine table).
func TestServiceMajorFillMatchesOracle(t *testing.T) {
	for name, w := range serviceMajorWorkloads(t) {
		for _, dt := range []float64{5, 300, 900} {
			ref := Compile(w, CompileOptions{Samples: 12, FineStepSec: dt})
			if gather := ref.profToFine != nil; gather != (dt < 900) {
				t.Fatalf("%s dt %v: profile gather %v", name, dt, gather)
			}
			checkTablesOracle(t, name, w, ref)
			for _, peaks := range []int64{0, 1, 2, 3} {
				for _, n := range []int{0, 2, 8} {
					var workers *par.Budget
					if n > 0 {
						workers = par.NewBudget(n)
					}
					opt := CompileOptions{Samples: 12, FineStepSec: dt, MaxFineTableBytes: peaks * ref.fine.slotPeak, Workers: workers}
					c := Compile(w, opt)
					if got := c.FineChunkSlots(); got != int(peaks) {
						t.Fatalf("%s dt %v: %d-peak budget streams %d-slot windows", name, dt, peaks, got)
					}
					sameRows(t, fmt.Sprintf("%s dt %v peaks %d workers %d", name, dt, peaks, n), ref, c, workers)
				}
			}
		}
	}
}

// TestCompileSeesThroughStartZeroWindow pins the compile of a start-0
// window over a Workload — the simulator's view of a source longer than
// its horizon — to the row kernel, and its rows to the direct compile's
// for every slot of the window, resident and under a 1-byte budget.
func TestCompileSeesThroughStartZeroWindow(t *testing.T) {
	w := kernelWorkloads(t)["builtin"]
	direct := Compile(w, CompileOptions{})
	view := Window(w, 0, w.Slots()-6)
	for _, budget := range []int64{0, 1} {
		c := Compile(view, CompileOptions{MaxFineTableBytes: budget})
		if c.synth != Source(w) || c.src != view {
			t.Fatal("the windowed compile does not fill from the workload's kernel")
		}
		sameRows(t, fmt.Sprintf("window budget %d", budget), direct, c, nil)
	}

	// A window past slot 0 is offset, so it keeps filling through its own
	// per-step Util.
	late := Window(w, 5, 12)
	c := Compile(late, CompileOptions{})
	if c.synth != late {
		t.Fatal("a window past slot 0 fills from the workload's kernel")
	}
	for sl := timeutil.Slot(0); sl < c.Slots(); sl++ {
		for _, id := range c.ActiveVMs(sl) {
			sameRow(t, "late window fine", id, sl, c.FineRow(id, sl), late.SlotProfile(id, sl, timeutil.StepsPerSlot))
			sameRow(t, "late window profile", id, sl, c.ProfileRow(id, obsSlot(sl)), late.SlotProfile(id, obsSlot(sl), 12))
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
			if want := view.Util(id, g.step[k]); math.Float64bits(row[k]) != math.Float64bits(want) {
				t.Fatalf("window vm %d step %d = %v, Util %v", id, g.step[k], row[k], want)
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

// BenchmarkFillUtil compares per-step Util, one row-kernel pass per VM
// over a shared grid, and the service-major window fill that shares one
// diurnal row per service and slot, per value, on a day of 400 initial
// VMs at the paper's 5 s step. The row-kernel pass also runs at a 300 s
// step, where a slot's 12 steps fall into six lattice segments of two, and
// "profile" times the 12-sample slot profile fill per call.
func BenchmarkFillUtil(b *testing.B) {
	w := New(Config{Seed: 42, Horizon: timeutil.Days(1), InitialVMs: 400})
	bench := func(b *testing.B, dt float64, fill func(row []float64, id int, g StepGrid)) {
		steps := fineStepsPerSlot(dt)
		grids := fineGrids(w.Slots(), dt, steps)
		row := make([]float64, steps)
		values := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for sl, g := range grids {
				for _, id := range w.ActiveVMs(timeutil.Slot(sl)) {
					fill(row, id, g)
					values += g.Len()
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(values), "ns/value")
	}
	b.Run("util", func(b *testing.B) {
		bench(b, timeutil.StepSeconds, func(row []float64, id int, g StepGrid) {
			for k := range row {
				row[k] = w.Util(id, g.step[k])
			}
		})
	})
	for _, dt := range []float64{timeutil.StepSeconds, 300} {
		b.Run(fmt.Sprintf("kernel/dt=%v", dt), func(b *testing.B) {
			bench(b, dt, func(row []float64, id int, g StepGrid) { FillUtil(row, w, id, g) })
		})
	}
	// The controllers' 12-sample slot profiles, one FillSlotProfile per
	// VM and slot over its stack-resident grid.
	b.Run("profile", func(b *testing.B) {
		var prof [12]float64
		fills := 0
		for i := 0; i < b.N; i++ {
			for sl := timeutil.Slot(0); sl < w.Slots(); sl++ {
				for _, id := range w.ActiveVMs(sl) {
					w.FillSlotProfile(prof[:], id, sl)
					fills++
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(fills), "ns/fill")
	})
	// The compiled path: the resident table's whole-horizon window, laid
	// out again and refilled service-major each iteration.
	b.Run("service-major", func(b *testing.B) {
		c := Compile(w, CompileOptions{Samples: -1})
		b.ResetTimer()
		values := 0
		for i := 0; i < b.N; i++ {
			win := c.layout(&c.fine, c.fine.res, 0)
			win.fill.Join(nil)
			values += len(win.buf)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(values), "ns/value")
	})
}
