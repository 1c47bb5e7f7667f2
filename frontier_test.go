package geovmp

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"geovmp/internal/experiment"
	"geovmp/internal/pareto"
)

// frontierSpec reduces a preset to frontier-test size: tiny fleet, eight
// hours, coarse green-controller steps.
func frontierSpec(preset string, seed uint64) Spec {
	spec := MustPreset(preset)
	spec.Scale = 0.01
	spec.Seed = seed
	spec.Horizon = HoursOf(8)
	spec.FineStepSec = 300
	return spec
}

// paretoSearchBaseline wraps the metaheuristic as a frontier baseline.
func paretoSearchBaseline() PolicySpec {
	return NewPolicySpec("Pareto-search", func(seed uint64) Policy { return ParetoSearch(seed) })
}

// frontierPoints converts a resolved frontier into pareto points for
// indicator computations outside the API.
func frontierPoints(sf *ScenarioFrontier) []pareto.Point {
	pts := make([]pareto.Point, len(sf.Points))
	for i, p := range sf.Points {
		pts[i] = pareto.Point{Name: p.Name, V: p.V}
	}
	return pts
}

// sharedRefHypervolumes measures two competing frontiers under one
// reference point derived from their union — the only apples-to-apples
// hypervolume comparison. The acceptance test and BenchmarkFrontier share
// this methodology (5% margin) through this helper.
func sharedRefHypervolumes(a, b *ScenarioFrontier) (hvA, hvB float64) {
	union := append(frontierPoints(a), frontierPoints(b)...)
	ref := pareto.Reference(union, 0.05)
	return pareto.Hypervolume(frontierPoints(a), ref), pareto.Hypervolume(frontierPoints(b), ref)
}

// TestFrontierCompileSharing asserts the tentpole's engine contract: an
// adaptive frontier run compiles each scenario x seed's workload and
// environment exactly once, however many refinement waves the driver
// schedules over it.
func TestFrontierCompileSharing(t *testing.T) {
	before := experiment.CompileCount()
	fs, err := Frontier{
		Scenarios:   []Spec{frontierSpec("paper-geo3dc", 7)},
		Objectives:  []Objective{CostObjective(), MeanRespObjective()},
		PointBudget: 9,
		coarse:      3,
		waveSize:    2,
		Seeds:       2,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sf := fs.Scenarios[0]
	if sf.Waves < 3 {
		t.Fatalf("driver took %d waves; the sharing claim needs several", sf.Waves)
	}
	if sf.Evals != 9 {
		t.Fatalf("evals = %d, want the full budget of 9", sf.Evals)
	}
	got := experiment.CompileCount() - before
	if got != 2 {
		t.Fatalf("compiled %d columns across %d waves, want exactly one per scenario x seed = 2", got, sf.Waves)
	}
}

// TestFrontierDeterministic pins the frontier's parallelism contract: the
// whole adaptive run — wave scheduling included — yields byte-identical
// FrontierSet JSON at worker budget 1, 2 and GOMAXPROCS+6, with the
// metaheuristic baseline on the grid.
func TestFrontierDeterministic(t *testing.T) {
	run := func(parallelism int) []byte {
		fs, err := Frontier{
			Scenarios:   []Spec{frontierSpec("geo5dc-dynamic", 11)},
			Objectives:  []Objective{CostObjective(), MeanRespObjective()},
			PointBudget: 7,
			coarse:      3,
			Seeds:       2,
			Baselines:   []PolicySpec{paretoSearchBaseline()},
			Parallelism: parallelism,
		}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		js, err := fs.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	base := run(1)
	for _, p := range []int{2, runtime.GOMAXPROCS(0) + 6} {
		if got := run(p); !bytes.Equal(base, got) {
			t.Fatalf("Parallelism %d diverged from the serial frontier", p)
		}
	}
}

// TestAdaptiveBeatsFixedGrid is the subsystem's acceptance criterion: at
// an equal point budget, the adaptive driver resolves a better frontier —
// strictly higher hypervolume under a shared reference point — than the
// uniform alpha grid, on both the paper's static world and the dynamic
// five-site preset. Two seeds smooth the response surface so the
// comparison measures systematic placement rather than single-seed luck,
// and baselines stay off the grids: identical fixed points on both sides
// would mask the drivers' difference. Wave size 2 keeps the driver
// re-targeting instead of degenerating into a full bisection round (which
// would reproduce the uniform grid exactly). The fixed grid is the driver
// with a coarse grid of the whole budget.
func TestAdaptiveBeatsFixedGrid(t *testing.T) {
	const budget = 13
	for _, preset := range []string{"paper-geo3dc", "geo5dc-dynamic"} {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			run := func(coarse, waveSize int) *ScenarioFrontier {
				fs, err := Frontier{
					Scenarios:   []Spec{frontierSpec(preset, 11)},
					Objectives:  []Objective{CostObjective(), MeanRespObjective()},
					PointBudget: budget,
					Seeds:       2,
					coarse:      coarse,
					waveSize:    waveSize,
				}.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return fs.Scenarios[0]
			}
			adaptive := run(0, 2)
			fixed := run(budget, 0)
			if adaptive.Evals != budget || fixed.Evals != budget {
				t.Fatalf("unequal budgets: adaptive %d, fixed %d", adaptive.Evals, fixed.Evals)
			}

			hvAdaptive, hvFixed := sharedRefHypervolumes(adaptive, fixed)
			if !(hvAdaptive > hvFixed) {
				t.Fatalf("adaptive hypervolume %.9g does not beat the fixed %d-point grid's %.9g",
					hvAdaptive, budget, hvFixed)
			}
			t.Logf("%s: adaptive hv %.6g > fixed hv %.6g (+%.2f%%), %d waves",
				preset, hvAdaptive, hvFixed, 100*(hvAdaptive/hvFixed-1), adaptive.Waves)
		})
	}
}

// goldenFrontierPath pins the frontier export for two presets x two seeds.
// Regenerate deliberately — never by editing — with:
//
//	GEOVMP_UPDATE_GOLDEN=1 go test -run TestGoldenFrontierSet .
//
// and review the diff like any other behaviour change.
const goldenFrontierPath = "testdata/golden_frontier.json"

// TestGoldenFrontierSet is the frontier twin of TestGoldenResultSet: the
// adaptive frontier over the pinned grid — static and dynamic preset, two
// seeds each, metaheuristic baseline included — must export byte-identical
// JSON. The frontier is deterministic at any parallelism, so any diff is a
// real behaviour change: intentional ones update the golden in the same
// commit, unintentional ones are caught regressions.
func TestGoldenFrontierSet(t *testing.T) {
	fs, err := Frontier{
		Scenarios:   []Spec{frontierSpec("paper-geo3dc", 7), frontierSpec("geo5dc-dynamic", 11)},
		Objectives:  []Objective{CostObjective(), MeanRespObjective()},
		PointBudget: 7,
		coarse:      3,
		Seeds:       2,
		Baselines:   []PolicySpec{paretoSearchBaseline()},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	js, err := fs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got := append(js, '\n')

	matchGolden(t, goldenFrontierPath, got)
}

// TestFrontierObjectives covers the extractor surface on one real run:
// every built-in objective yields a finite value, and the p95 sits between
// the mean and the max.
func TestFrontierObjectives(t *testing.T) {
	set, err := Experiment{
		Scenarios: []Spec{frontierSpec("paper-geo3dc", 7)},
		Policies:  StandardPolicies(0.9)[:1],
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r := set.At(0, 0, 0).Result
	for _, o := range []Objective{
		CostObjective(), EnergyObjective(), MeanRespObjective(),
		P95RespObjective(), WorstRespObjective(), MigDowntimeObjective(),
	} {
		v := o.Of(r)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("objective %s = %v", o.Name, v)
		}
	}
	// p95 is bounded by the sample extremes (mean <= p95 is NOT an
	// invariant of nearest-rank quantiles on skewed samples).
	p95, worst := P95RespObjective().Of(r), WorstRespObjective().Of(r)
	if !(p95 >= 0 && p95 <= worst) {
		t.Fatalf("quantile out of bounds: p95 %v, worst %v", p95, worst)
	}
}

// TestFrontierErrors covers the declaration failure paths.
func TestFrontierErrors(t *testing.T) {
	if _, err := Preset("no-such-preset"); err == nil {
		t.Fatal("unknown preset must fail")
	}
	if _, err := (Frontier{Seeds: -1}).Run(context.Background()); err == nil {
		t.Fatal("negative seeds must fail")
	}
	for _, budget := range []int{1, -1} {
		if _, err := (Frontier{PointBudget: budget}).Run(context.Background()); err == nil {
			t.Fatalf("point budget %d must fail", budget)
		}
	}
	if _, err := (Frontier{
		Scenarios:  []Spec{frontierSpec("paper-geo3dc", 7)},
		Objectives: []Objective{CostObjective()},
	}).Run(context.Background()); err == nil {
		t.Fatal("one objective must fail")
	}
	if _, err := (Frontier{
		Scenarios:  []Spec{frontierSpec("paper-geo3dc", 7)},
		Objectives: []Objective{CostObjective(), CostObjective()},
	}).Run(context.Background()); err == nil {
		t.Fatal("duplicate objective names must fail")
	}
	spec := frontierSpec("paper-geo3dc", 7)
	if _, err := (Frontier{Scenarios: []Spec{spec, spec}}).Run(context.Background()); err == nil {
		t.Fatal("duplicate scenario names must fail")
	}
}

// TestFrontierInjectedWorkloadCompilesOnce pins the seed-collapse: an
// injected workload is seed-independent, so a multi-seed frontier over it
// compiles one column, not one per seed — matching the engine's lazy path.
func TestFrontierInjectedWorkloadCompilesOnce(t *testing.T) {
	spec := frontierSpec("paper-geo3dc", 7)
	w, err := NewScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workload = w.Workload
	before := experiment.CompileCount()
	_, err = Frontier{
		Scenarios:   []Spec{spec},
		Objectives:  []Objective{CostObjective(), MeanRespObjective()},
		PointBudget: 3,
		coarse:      3,
		Seeds:       3,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := experiment.CompileCount() - before; got != 1 {
		t.Fatalf("injected workload compiled %d columns across 3 seeds, want 1", got)
	}
}

// TestFrontierRendering smoke-checks the report table and SVG over a real
// resolved frontier.
func TestFrontierRendering(t *testing.T) {
	fs, err := Frontier{
		Scenarios:   []Spec{frontierSpec("paper-geo3dc", 7)},
		Objectives:  []Objective{CostObjective(), MeanRespObjective()},
		PointBudget: 5,
		coarse:      3,
		Baselines:   []PolicySpec{paretoSearchBaseline()},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sf := fs.Scenarios[0]
	fig := FrontierFigure(sf)
	if len(fig.Rows) != sf.Evals {
		t.Fatalf("figure has %d rows, want %d", len(fig.Rows), sf.Evals)
	}
	if fig.Render() == "" {
		t.Fatal("empty figure rendering")
	}
	svg := FrontierSVG(sf)
	if !bytes.Contains([]byte(svg), []byte("</svg>")) {
		t.Fatal("SVG rendering not closed")
	}
	if !bytes.Contains([]byte(svg), []byte("knee")) {
		t.Fatal("SVG misses the knee callout")
	}
}

// TestAlphaLabelsUniqueAtBisectionSpacing pins the frontier's point names:
// the driver bisects alpha down to a 1/2000 spacing, and every pair of
// knobs that far apart keeps distinct labels, in the precision the report
// table shares (KnobDecimals over [0, 1]).
func TestAlphaLabelsUniqueAtBisectionSpacing(t *testing.T) {
	const spacing = 1.0 / 2000
	if d := pareto.KnobDecimals(0, 1); d != 4 {
		t.Fatalf("KnobDecimals(0, 1) = %d; alpha labels print 4 decimals", d)
	}
	for _, offset := range []float64{0, spacing / 3} {
		seen := map[string]float64{}
		for i := 0; float64(i)*spacing+offset <= 1; i++ {
			a := float64(i)*spacing + offset
			name := alphaKnob(a).Name
			if prev, dup := seen[name]; dup {
				t.Fatalf("alpha %v and %v share label %q", prev, a, name)
			}
			seen[name] = a
		}
	}
}
