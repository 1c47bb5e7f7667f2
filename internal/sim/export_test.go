package sim

import (
	"geovmp/internal/alloc"
	"geovmp/internal/dc"
	"geovmp/internal/par"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
	"geovmp/internal/units"
)

// EvaluateFinePlan runs the simulator's fine-plan pass for slot sl over the
// given per-DC allocations, reading the fine rows the way RunCtx does (a
// fresh cursor positioned on sl), and returns the per-DC per-step IT power
// and throttled demand.
func EvaluateFinePlan(c *trace.Compiled, fleet dc.Fleet, allocs []alloc.Result, sl timeutil.Slot, workers *par.Budget) ([][]units.Power, [][]float64) {
	views := make([]allocView, len(fleet))
	for i, a := range allocs {
		views[i].reset(a)
	}
	_, steps := c.FineParams()
	p := newFinePlan(len(fleet), steps)
	cur := c.NewFineCursor(workers)
	defer cur.Close()
	cur.Advance(sl)
	p.evaluate(cur, c, fleet, views, sl, workers)
	return p.itPower, p.throttled
}

// EnvAt returns the environment table's PUE and renewable power of DC i at
// fine step k of slot sl, and the DC's realized PV energy of the slot.
func (e *Environment) EnvAt(i int, sl timeutil.Slot, k int) (float64, units.Power, units.Energy) {
	return e.pue[i][int(sl)*e.steps+k], e.renew[i][int(sl)*e.steps+k], e.pv[i][sl]
}

// RunTables returns the workload and environment tables a run of sc reads:
// sc's own when they match it, fresh compiles otherwise.
func RunTables(sc *Scenario) (*trace.Compiled, *Environment) {
	sc.applyDefaults()
	return compileWorkload(sc), runEnvironment(sc)
}
