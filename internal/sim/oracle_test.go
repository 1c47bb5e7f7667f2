package sim_test

import (
	"fmt"
	"math"
	"testing"

	"geovmp/internal/alloc"
	"geovmp/internal/config"
	"geovmp/internal/dc"
	"geovmp/internal/par"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
	"geovmp/internal/units"
)

// The simulator reads utilization and the site models only through
// compiled tables. The per-step evaluations it ran before every workload
// was compiled live on here as oracles: the tables must reproduce them bit
// for bit.

// oraclePresets are the fleets the oracles sweep: the paper's, the
// five-site one and the faulty five-site one.
var oraclePresets = []string{"paper-geo3dc", "geo5dc", "geo5dc-faulty"}

func oracleSpec(t *testing.T, preset string, seed uint64, hours int, fineStep float64) config.Spec {
	t.Helper()
	spec, err := config.Preset(preset)
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.01
	spec.Seed = seed
	spec.Horizon = timeutil.Hours(hours)
	spec.FineStepSec = fineStep
	return spec
}

// fineSteps lists the utilization step of every iteration of the
// simulator's fine loop over slot sl, with its floating-point time
// accumulation.
func fineSteps(sl timeutil.Slot, dt float64) []timeutil.Step {
	var out []timeutil.Step
	start := sl.Seconds()
	for t := 0.0; t < timeutil.SlotSeconds; t += dt {
		out = append(out, timeutil.Step(int64(start+t)/timeutil.StepSeconds))
	}
	return out
}

// itPowerAt is the per-step oracle of the fine plan: the DC's IT power at
// one fine step plus the demand beyond the packed servers' capacity,
// summing each server's member VMs' Util in allocation order.
func itPowerAt(w trace.Source, d *dc.DC, a alloc.Result, step timeutil.Step) (units.Power, float64) {
	var total units.Power
	var throttled float64
	for _, srv := range a.Servers {
		var load float64
		for _, id := range srv.VMs {
			load += w.Util(id, step)
		}
		capS := d.Model.Capacity(srv.Level)
		if load > capS {
			throttled += load - capS
		}
		total += d.Model.Power(srv.Level, load)
	}
	return total, throttled
}

// oracleAllocs spreads ids over the fleet's DCs in servers of 1 to 40 VMs,
// cycling the DVFS levels so some servers run past capacity.
func oracleAllocs(fleet dc.Fleet, ids []int) []alloc.Result {
	sizes := []int{1, 3, 6, 40}
	out := make([]alloc.Result, len(fleet))
	for pos, n, i := 0, 0, 0; pos < len(ids); n, i = n+1, (i+1)%len(fleet) {
		end := min(pos+sizes[n%len(sizes)], len(ids))
		level := n % (fleet[i].Model.TopLevel() + 1)
		out[i].Servers = append(out[i].Servers, alloc.ServerAlloc{VMs: ids[pos:end], Level: level})
		pos = end
	}
	return out
}

// TestFinePlanMatchesPerStepOracle: the vectorized fine plan equals the
// per-step Util summation bit for bit, over resident and chunked tables,
// serial and sharded, for allocations that also place ids the table does
// not cover at that slot — ids active only in other slots, and ids never
// active within the compiled horizon.
func TestFinePlanMatchesPerStepOracle(t *testing.T) {
	const hours = 6
	for _, preset := range oraclePresets {
		for _, seed := range []uint64{7, 19} {
			// The source runs twice as long as the compiled window, so the
			// VMs arriving after it are never active inside it.
			spec := oracleSpec(t, preset, seed, 2*hours, 300)
			raw, err := config.NewWorkload(spec)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := config.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			window := trace.Window(raw, 0, hours)
			everActive := make([]bool, raw.NumVMs())
			for sl := timeutil.Slot(0); sl < hours; sl++ {
				for _, id := range window.ActiveVMs(sl) {
					everActive[id] = true
				}
			}
			var never []int
			for id, ok := range everActive {
				if !ok {
					never = append(never, id)
				}
			}
			if len(never) == 0 {
				t.Fatalf("%s seed %d: no never-active id to cover", preset, seed)
			}
			throttled := false
			for _, budget := range []int64{0, 1} {
				c := trace.Compile(window, trace.CompileOptions{Samples: 12, FineStepSec: 300, MaxFineTableBytes: budget})
				if streamed := c.FineChunkSlots() > 0; (budget == 1) != streamed {
					t.Fatalf("budget %d: streamed = %v", budget, streamed)
				}
				for _, workers := range []*par.Budget{nil, par.NewBudget(2)} {
					for sl := timeutil.Slot(0); sl < hours; sl++ {
						ids := append([]int(nil), window.ActiveVMs(sl)...)
						ids = append(ids, never[:min(len(never), 5)]...)
						if other := window.ActiveVMs((sl + 3) % hours); len(other) > 0 {
							ids = append(ids, other[len(other)-1])
						}
						allocs := oracleAllocs(sc.Fleet, ids)
						itp, thr := sim.EvaluateFinePlan(c, sc.Fleet, allocs, sl, workers)
						name := fmt.Sprintf("%s seed %d budget %d slot %d", preset, seed, budget, sl)
						for k, step := range fineSteps(sl, 300) {
							for i, d := range sc.Fleet {
								wantIT, wantThr := itPowerAt(raw, d, allocs[i], step)
								if math.Float64bits(float64(itp[i][k])) != math.Float64bits(float64(wantIT)) ||
									math.Float64bits(thr[i][k]) != math.Float64bits(wantThr) {
									t.Fatalf("%s dc %d step %d: plan (%v, %v), per-step oracle (%v, %v)",
										name, i, k, itp[i][k], thr[i][k], wantIT, wantThr)
								}
								throttled = throttled || wantThr > 0
							}
						}
					}
				}
			}
			if !throttled {
				t.Fatalf("%s seed %d: no server ran past capacity", preset, seed)
			}
		}
	}
}

// TestEnvironmentMatchesPerStepOracle: the compiled environment equals the
// site models evaluated at every fine step (PUEAt, PowerAt) and slot
// (SlotEnergy) bit for bit, at the paper's 5 s step, a coarse step and a
// step that does not divide the slot, serial and sharded.
func TestEnvironmentMatchesPerStepOracle(t *testing.T) {
	const hours = 30 // crosses a day boundary
	for _, preset := range oraclePresets {
		for _, seed := range []uint64{7, 19} {
			for _, dt := range []float64{5, 300, 7} {
				spec := oracleSpec(t, preset, seed, hours, dt)
				sc, err := config.Build(spec)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []*par.Budget{nil, par.NewBudget(2)} {
					env := sim.CompileEnvironment(sc.Fleet, sc.Horizon, dt, workers)
					for sl := timeutil.Slot(0); sl < hours; sl++ {
						start := sl.Seconds()
						for i, d := range sc.Fleet {
							k := 0
							for t0 := 0.0; t0 < timeutil.SlotSeconds; t0 += dt {
								at := start + t0
								pue, renew, pv := env.EnvAt(i, sl, k)
								if math.Float64bits(pue) != math.Float64bits(d.Cooling.PUEAt(at)) ||
									math.Float64bits(float64(renew)) != math.Float64bits(float64(d.Plant.PowerAt(at))) {
									t.Fatalf("%s seed %d dt %v dc %d slot %d step %d: table (%v, %v), models (%v, %v)",
										preset, seed, dt, i, sl, k, pue, renew, d.Cooling.PUEAt(at), d.Plant.PowerAt(at))
								}
								if k == 0 && math.Float64bits(float64(pv)) != math.Float64bits(float64(d.Plant.SlotEnergy(sl))) {
									t.Fatalf("%s seed %d dt %v dc %d slot %d: table PV %v, SlotEnergy %v",
										preset, seed, dt, i, sl, pv, d.Plant.SlotEnergy(sl))
								}
								k++
							}
						}
					}
				}
			}
		}
	}
}

// TestMatchingTablesUsedAsHandedOver: a compiled trace and an environment
// that match the scenario reach the run as the same objects — engine
// columns pay for one compile — while mismatched ones are recompiled.
func TestMatchingTablesUsedAsHandedOver(t *testing.T) {
	spec := oracleSpec(t, "paper-geo3dc", 3, 6, 300)
	c, err := config.CompileWorkload(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := config.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.CompileEnvironment(sc.Fleet, sc.Horizon, 300, nil)
	sc.Workload, sc.Env = c, env
	if w, e := sim.RunTables(sc); w != c || e != env {
		t.Fatal("matching tables were recompiled")
	}
	sc.FineStepSec = 600
	if w, e := sim.RunTables(sc); w == c || e == env {
		t.Fatal("tables at another fine step were used")
	}
	if dt, _ := sc.Workload.(*trace.Compiled).FineParams(); dt != 300 {
		t.Fatal("the scenario's own workload was replaced")
	}

	// Empty profiles compile without a profile table; such a trace matches.
	spec.ProfileSamples = -1
	if c, err = config.CompileWorkload(spec, nil); err != nil {
		t.Fatal(err)
	}
	if sc, err = config.Build(spec); err != nil {
		t.Fatal(err)
	}
	sc.Workload = c
	if w, _ := sim.RunTables(sc); w != c {
		t.Fatal("a matching trace without profiles was recompiled")
	}
}
