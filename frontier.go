package geovmp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"geovmp/internal/config"
	"geovmp/internal/experiment"
	"geovmp/internal/par"
	"geovmp/internal/pareto"
	"geovmp/internal/policy"
	"geovmp/internal/report"
	"geovmp/internal/viz"
)

// Objective is one axis of a trade-off frontier: a stable name (used in
// FrontierSet JSON and reports) and an extractor mapping a run's Result to
// a scalar. All objectives are minimized; negate inside Of for quantities
// you want maximized.
//
// OfRow, when non-nil, extracts the same scalar from a flattened cell row
// (CellRow) — the form results arrive in from distributed sweeps and resume
// checkpoints. Every standard objective except P95RespObjective carries it
// (the p95 needs the raw response samples, which do not travel); a frontier
// scheduled through a Coordinator requires it on every objective.
type Objective struct {
	Name  string
	Of    func(*Result) float64
	OfRow func(*CellRow) float64
}

// CellRow is a cell's flattened export row — the stable JSON schema rows
// distributed workers stream back and checkpoints store.
type CellRow = experiment.CellData

// CostObjective measures operational cost in EUR (Fig. 1).
func CostObjective() Objective {
	return Objective{
		Name:  "cost_eur",
		Of:    func(r *Result) float64 { return float64(r.OpCost) },
		OfRow: func(c *CellRow) float64 { return c.CostEUR },
	}
}

// EnergyObjective measures total facility energy in GJ (Fig. 2).
func EnergyObjective() Objective {
	return Objective{
		Name:  "energy_gj",
		Of:    func(r *Result) float64 { return r.TotalEnergy.GJ() },
		OfRow: func(c *CellRow) float64 { return c.EnergyGJ },
	}
}

// MeanRespObjective measures the mean response time in seconds (Fig. 3).
func MeanRespObjective() Objective {
	return Objective{
		Name:  "mean_resp_s",
		Of:    func(r *Result) float64 { return r.RespSummary.Mean() },
		OfRow: func(c *CellRow) float64 { return c.MeanRespS },
	}
}

// WorstRespObjective measures the worst-case response time in seconds —
// the paper's SLA metric.
func WorstRespObjective() Objective {
	return Objective{
		Name:  "worst_resp_s",
		Of:    func(r *Result) float64 { return r.RespSummary.Max() },
		OfRow: func(c *CellRow) float64 { return c.WorstRespS },
	}
}

// P95RespObjective measures the 95th-percentile response time in seconds
// (nearest-rank over the run's per-slot, per-DC samples) — stabler than the
// worst case, stricter than the mean.
func P95RespObjective() Objective {
	return Objective{Name: "p95_resp_s", Of: func(r *Result) float64 {
		return respQuantile(r, 0.95)
	}}
}

// MigDowntimeObjective measures the charged migration downtime in seconds
// (zero on the static path; see Spec.Migration).
func MigDowntimeObjective() Objective {
	return Objective{
		Name:  "mig_downtime_s",
		Of:    func(r *Result) float64 { return r.MigDowntimeSec },
		OfRow: func(c *CellRow) float64 { return c.MigDowntimeS },
	}
}

// DataLossObjective measures the storage model's mean per-slot data-loss
// probability under the run's fault schedule (zero on fault-free runs;
// see Spec.Faults / Spec.Storage).
func DataLossObjective() Objective {
	return Objective{
		Name:  "data_loss_prob",
		Of:    func(r *Result) float64 { return r.DataLossProb },
		OfRow: func(c *CellRow) float64 { return c.DataLossProb },
	}
}

// RepairBandwidthObjective measures the shard-rebuild traffic pushed
// through the backbone in GB — the durability tax erasure codes pay on
// every incident.
func RepairBandwidthObjective() Objective {
	return Objective{
		Name:  "repair_gb",
		Of:    func(r *Result) float64 { return r.RepairBytes.GB() },
		OfRow: func(c *CellRow) float64 { return c.RepairGB },
	}
}

// respQuantile is the nearest-rank q-quantile of the response samples.
func respQuantile(r *Result, q float64) float64 {
	if len(r.RespSamples) == 0 {
		return 0
	}
	s := append([]float64(nil), r.RespSamples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// FrontierSet is a frontier run's structured outcome: one resolved
// ScenarioFrontier per scenario, with deterministic, stable-ordered JSON
// export (JSON, WriteJSON) suitable for golden files.
type FrontierSet = pareto.FrontierSet

// ScenarioFrontier is one scenario's resolved trade-off frontier: the
// evaluated points with non-domination ranks, the Pareto-optimal subset,
// the knee selection and the hypervolume/spread indicators.
type ScenarioFrontier = pareto.ScenarioFrontier

// FrontierPoint is one evaluated configuration of a scenario frontier.
type FrontierPoint = pareto.FrontierPoint

// Frontier declares a multi-objective trade-off exploration: scenarios x
// the proposed controller's Eq. 5 alpha over [0, 1] x seeds, evaluated
// against a set of objectives. Run drives alpha with the adaptive frontier
// driver: a coarse grid of 5 first, then refinement waves of up to 4
// points bisecting the alpha intervals spanning the largest hypervolume
// gaps, until the point budget is spent. Every wave of a scenario runs as
// one experiment-engine grid over the SAME pre-compiled workload and
// environment (one compile per scenario x seed for the whole frontier, not
// per wave), so refinement costs simulation time only.
//
// The zero Frontier sweeps alpha over the paper's Table I world against the
// cost and mean-response objectives with a 12-point budget:
//
//	fs, err := geovmp.Frontier{
//	    Scenarios:   []geovmp.Spec{spec},
//	    Objectives:  []geovmp.Objective{geovmp.CostObjective(), geovmp.MeanRespObjective()},
//	    PointBudget: 12,
//	    Baselines: []geovmp.PolicySpec{
//	        geovmp.NewPolicySpec("Pareto-search", func(seed uint64) geovmp.Policy {
//	            return geovmp.ParetoSearch(seed)
//	        }),
//	    },
//	}.Run(ctx)
//	knee := fs.Scenarios[0].KneePoint()
type Frontier struct {
	// Scenarios is the scenario axis; each scenario resolves its own
	// frontier. Empty means the zero Spec.
	Scenarios []Spec
	// Objectives are the objective axes, at least two; empty means cost vs
	// mean response.
	Objectives []Objective
	// Seeds evaluates every point over n consecutive seeds and builds the
	// frontier from the per-point mean objective vectors; 0 means one seed
	// and a negative count is an error.
	Seeds int
	// Parallelism is the engine worker budget each evaluation wave runs
	// under (see Experiment.Parallelism; <= 0 selects GOMAXPROCS). Any
	// value yields byte-identical frontiers.
	Parallelism int
	// PointBudget caps the number of knob evaluations per scenario, the
	// coarse grid included; 0 means 12 and 1 or less is an error.
	// Baselines don't count against it.
	PointBudget int
	// Baselines are fixed policies evaluated alongside the knob sweep (once
	// per scenario, riding the first wave's grid). They join the frontier
	// as knob-less points — framing it, competing for the front, and
	// eligible for the knee.
	Baselines []PolicySpec
	// Coordinator, when non-nil, schedules every evaluation wave through a
	// dist coordinator instead of the in-process engine: wave cells are
	// leased to connected workers, which compile each scenario x seed
	// column once on their side (the distributed analogue of the
	// frontier's local column sharing). Every objective must then carry
	// OfRow (results arrive as flattened rows) and baselines must carry
	// Refs; the alpha points always travel as PolicyRefs. The resolved
	// frontier is byte-identical to the in-process run's.
	Coordinator *Coordinator

	// coarse and waveSize are the adaptive driver's coarse grid and
	// refinement wave size; zero means 5 and 4. Tests and benchmarks set
	// them for a smaller grid or wave, or a coarse grid of the whole
	// budget.
	coarse, waveSize int
}

// alphaKnob is one frontier point: the proposed controller at alpha t,
// labeled "alpha=<t>" and resolved from its wire form, so it runs in
// process and on dist workers alike. KnobDecimals(0, 1) is 4, which keeps
// labels unique down to the driver's 1/2000 bisection spacing.
func alphaKnob(t float64) PolicySpec {
	return builtinPolicySpec(fmt.Sprintf("alpha=%.4f", t), PolicyRef{Kind: PolicyKindProposed, Alpha: t})
}

// Run explores the frontier of every scenario. Cancelling ctx abandons the
// current wave and returns the error; completed scenarios are lost (run
// scenarios separately if partial results matter).
func (f Frontier) Run(ctx context.Context) (*FrontierSet, error) {
	offsets, err := seedOffsets(f.Seeds)
	if err != nil {
		return nil, err
	}
	switch {
	case f.PointBudget == 0:
		f.PointBudget = 12
	case f.PointBudget < 2:
		return nil, fmt.Errorf("geovmp: PointBudget %d: need at least two points", f.PointBudget)
	}
	if f.coarse == 0 {
		f.coarse = 5
	}
	if f.waveSize == 0 {
		f.waveSize = 4
	}
	if len(f.Scenarios) == 0 {
		f.Scenarios = []Spec{{}}
	}
	// Mirror the engine's duplicate-scenario guard: each scenario runs in
	// its own grid here, so the engine's own check never fires, but
	// FrontierSet.Scenario lookups and the per-scenario CSV/SVG outputs
	// would silently collide all the same.
	seenScenario := make(map[string]bool, len(f.Scenarios))
	for _, spec := range f.Scenarios {
		name := spec.Name
		if name == "" {
			name = config.DefaultScenarioName
		}
		if seenScenario[name] {
			return nil, fmt.Errorf("geovmp: duplicate frontier scenario name %q", name)
		}
		seenScenario[name] = true
	}
	if len(f.Objectives) == 0 {
		f.Objectives = []Objective{CostObjective(), MeanRespObjective()}
	}
	if len(f.Objectives) < 2 {
		return nil, errors.New("geovmp: a frontier needs at least two objectives")
	}
	names := make([]string, len(f.Objectives))
	seen := map[string]bool{}
	for i, o := range f.Objectives {
		if o.Of == nil {
			return nil, fmt.Errorf("geovmp: objective %q has no extractor", o.Name)
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("geovmp: duplicate objective %q", o.Name)
		}
		if f.Coordinator != nil && o.OfRow == nil {
			return nil, fmt.Errorf("geovmp: objective %q has no row extractor (OfRow) — it cannot ride a distributed frontier", o.Name)
		}
		seen[o.Name] = true
		names[i] = o.Name
	}

	fs := &FrontierSet{Objectives: names, Seeds: len(offsets)}
	for _, spec := range f.Scenarios {
		sf, err := f.runScenario(ctx, spec, offsets, names)
		if err != nil {
			return nil, err
		}
		fs.Scenarios = append(fs.Scenarios, sf)
	}
	return fs, nil
}

// runScenario resolves one scenario's frontier: compile each seed's column
// once, then schedule every evaluation wave through the experiment engine
// over those shared columns. f has Run's defaults applied.
func (f Frontier) runScenario(ctx context.Context, spec Spec, offsets []uint64, names []string) (*ScenarioFrontier, error) {
	scenarioName := spec.Name
	if scenarioName == "" {
		scenarioName = config.DefaultScenarioName
	}

	// One compile per scenario x seed for the whole frontier run. The
	// compile itself is sharded over the same worker budget the waves get.
	// An injected workload (and the environment, always) is seed-
	// independent, so all seed columns collapse onto one compile — the
	// same collapse the engine's lazy path applies. A distributed frontier
	// compiles nothing here: each worker compiles and caches its own
	// columns, reused across every wave's cells of the scenario x seed.
	var colFor func(scenario string, seed uint64) *experiment.Column
	if f.Coordinator == nil {
		workers := f.Parallelism
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		columns := make(map[uint64]*experiment.Column, len(offsets))
		compileBudget := par.NewBudget(workers - 1)
		for _, off := range offsets {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if spec.Workload != nil && off > 0 {
				columns[spec.Seed+off] = columns[spec.Seed]
				continue
			}
			col, err := experiment.CompileColumn(spec, spec.Seed+off, compileBudget)
			if err != nil {
				return nil, err
			}
			columns[spec.Seed+off] = col
		}
		colFor = func(scenario string, seed uint64) *experiment.Column {
			if scenario != scenarioName {
				return nil
			}
			return columns[seed]
		}
	}

	var points []FrontierPoint
	firstWave := true
	evalGrid := func(pols []PolicySpec) (*ResultSet, error) {
		g := experiment.Grid{
			Scenarios:   []Spec{spec},
			Policies:    pols,
			SeedOffsets: offsets,
			Parallelism: f.Parallelism,
			Columns:     colFor,
		}
		if f.Coordinator != nil {
			return f.Coordinator.RunGrid(ctx, g)
		}
		return experiment.Run(ctx, g)
	}
	vectorsOf := func(set *ResultSet, pi int) ([]float64, error) {
		v := make([]float64, len(f.Objectives))
		for ki := range set.SeedOffsets {
			cell := set.At(0, pi, ki)
			switch {
			case cell.Result != nil:
				for oi, o := range f.Objectives {
					v[oi] += o.Of(cell.Result)
				}
			case cell.Data != nil:
				// Distributed waves return flattened rows; the standard
				// objectives read the same fields either way.
				for oi, o := range f.Objectives {
					v[oi] += o.OfRow(cell.Data)
				}
			default:
				return nil, fmt.Errorf("geovmp: frontier cell %s/%s/seed+%d failed: %w",
					cell.Scenario, cell.Policy, ki, cell.Err)
			}
		}
		for oi := range v {
			v[oi] /= float64(len(set.SeedOffsets))
		}
		return v, nil
	}

	eval := func(knobs []float64) ([][]float64, error) {
		pols := make([]PolicySpec, 0, len(knobs)+len(f.Baselines))
		for _, t := range knobs {
			pols = append(pols, alphaKnob(t))
		}
		nKnobs := len(pols)
		if firstWave {
			// Baselines ride the first wave's grid: same columns, no extra
			// compile, evaluated exactly once per scenario.
			pols = append(pols, f.Baselines...)
		}
		set, err := evalGrid(pols)
		if err != nil {
			return nil, err
		}
		out := make([][]float64, len(knobs))
		for i := range knobs {
			v, err := vectorsOf(set, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
			points = append(points, FrontierPoint{
				Name: set.Policies[i], Knob: knobs[i], HasKnob: true, V: v,
			})
		}
		if firstWave {
			for pi := nKnobs; pi < len(pols); pi++ {
				v, err := vectorsOf(set, pi)
				if err != nil {
					return nil, err
				}
				points = append(points, FrontierPoint{Name: set.Policies[pi], V: v})
			}
			firstWave = false
		}
		return out, nil
	}

	res, err := pareto.Adaptive(pareto.AdaptiveConfig{
		Lo: 0, Hi: 1,
		Coarse:   f.coarse,
		Budget:   f.PointBudget,
		WaveSize: f.waveSize,
	}, eval)
	if err != nil {
		return nil, err
	}
	return pareto.Resolve(scenarioName, names, points, nil, res.Waves)
}

// ParetoSearch returns the metaheuristic search baseline: a seeded
// multi-start local search that perturbs the incumbent placement, climbs
// under several objective weightings, keeps a non-dominated archive of the
// outcomes and executes the archive's knee each slot. Pit it against the
// proposed controller as one of Frontier.Baselines, or run it in any
// experiment grid. Construct a fresh instance per run.
func ParetoSearch(seed uint64) *ParetoSearchPolicy { return policy.NewParetoSearch(seed) }

// ParetoSearchPolicy is the concrete type behind ParetoSearch.
type ParetoSearchPolicy = policy.ParetoSearch

// FrontierFigure renders one scenario frontier as a report table: every
// point with its knob, objectives, rank and front/knee markers.
func FrontierFigure(sf *ScenarioFrontier) *Figure { return report.Frontier(sf) }

// FrontierSVG renders one scenario frontier as an SVG scatter of its first
// two objectives: the Pareto front connected and highlighted, dominated
// points faded, the knee called out.
func FrontierSVG(sf *ScenarioFrontier) string { return viz.Front(sf) }
