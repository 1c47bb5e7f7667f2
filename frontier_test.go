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
	fs, err := NewFrontier(
		FrontierScenarios(frontierSpec("paper-geo3dc", 7)),
		FrontierObjectives(CostObjective(), MeanRespObjective()),
		FrontierPointBudget(9),
		FrontierCoarseGrid(4),
		FrontierWaveSize(2),
		FrontierSeeds(2),
	).Run(context.Background())
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
		fs, err := NewFrontier(
			FrontierScenarios(frontierSpec("geo5dc-dynamic", 11)),
			FrontierObjectives(CostObjective(), MeanRespObjective()),
			FrontierPointBudget(7),
			FrontierCoarseGrid(3),
			FrontierSeeds(2),
			FrontierBaselines(paretoSearchBaseline()),
			FrontierParallelism(parallelism),
		).Run(context.Background())
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
			t.Fatalf("FrontierParallelism(%d) diverged from the serial frontier", p)
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
// would reproduce the uniform grid exactly).
func TestAdaptiveBeatsFixedGrid(t *testing.T) {
	const budget = 13
	for _, preset := range []string{"paper-geo3dc", "geo5dc-dynamic"} {
		preset := preset
		t.Run(preset, func(t *testing.T) {
			run := func(opts ...FrontierOption) *ScenarioFrontier {
				fs, err := NewFrontier(append([]FrontierOption{
					FrontierScenarios(frontierSpec(preset, 11)),
					FrontierObjectives(CostObjective(), MeanRespObjective()),
					FrontierPointBudget(budget),
					FrontierSeeds(2),
				}, opts...)...).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return fs.Scenarios[0]
			}
			adaptive := run(FrontierCoarseGrid(5), FrontierWaveSize(2))
			fixed := run(FrontierFixedGrid())
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
	fs, err := NewFrontier(
		FrontierScenarios(frontierSpec("paper-geo3dc", 7), frontierSpec("geo5dc-dynamic", 11)),
		FrontierObjectives(CostObjective(), MeanRespObjective()),
		FrontierPointBudget(7),
		FrontierCoarseGrid(3),
		FrontierSeeds(2),
		FrontierBaselines(paretoSearchBaseline()),
	).Run(context.Background())
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
	set, err := NewExperiment(
		WithScenarios(frontierSpec("paper-geo3dc", 7)),
		WithPolicies(StandardPolicies(0.9)[:1]...),
	).Run(context.Background())
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

// TestFrontierErrors covers the construction failure paths.
func TestFrontierErrors(t *testing.T) {
	if _, err := NewFrontier(FrontierPresets("no-such-preset")).Run(context.Background()); err == nil {
		t.Fatal("unknown preset must fail")
	}
	if _, err := NewFrontier(FrontierSeeds(0)).Run(context.Background()); err == nil {
		t.Fatal("zero seeds must fail")
	}
	if _, err := NewFrontier(FrontierPointBudget(1)).Run(context.Background()); err == nil {
		t.Fatal("single-point budget must fail")
	}
	if _, err := NewFrontier(
		FrontierScenarios(frontierSpec("paper-geo3dc", 7)),
		FrontierObjectives(CostObjective()),
	).Run(context.Background()); err == nil {
		t.Fatal("one objective must fail")
	}
	if _, err := NewFrontier(
		FrontierScenarios(frontierSpec("paper-geo3dc", 7)),
		FrontierObjectives(CostObjective(), CostObjective()),
	).Run(context.Background()); err == nil {
		t.Fatal("duplicate objective names must fail")
	}
	if _, err := NewFrontier(FrontierKnob("k", 0, 1, nil)).Run(context.Background()); err == nil {
		t.Fatal("nil knob constructor must fail")
	}
	if _, err := NewFrontier(
		FrontierKnob("k", 0.5, 0.5, func(t float64, seed uint64) Policy { return Proposed(t, seed) }),
		FrontierFixedGrid(),
	).Run(context.Background()); err == nil {
		t.Fatal("empty knob range must fail on the fixed-grid path too")
	}
	spec := frontierSpec("paper-geo3dc", 7)
	if _, err := NewFrontier(FrontierScenarios(spec, spec)).Run(context.Background()); err == nil {
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
	_, err = NewFrontier(
		FrontierScenarios(spec),
		FrontierObjectives(CostObjective(), MeanRespObjective()),
		FrontierPointBudget(3),
		FrontierCoarseGrid(3),
		FrontierSeeds(3),
	).Run(context.Background())
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
	fs, err := NewFrontier(
		FrontierScenarios(frontierSpec("paper-geo3dc", 7)),
		FrontierObjectives(CostObjective(), MeanRespObjective()),
		FrontierPointBudget(5),
		FrontierCoarseGrid(3),
		FrontierBaselines(paretoSearchBaseline()),
	).Run(context.Background())
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

// TestKnobLabelPrecisionScalesWithRange pins label uniqueness for narrow
// custom knob ranges: the decimals grow with the range's leading zeros so
// two distinct bisection knobs can never share a name.
func TestKnobLabelPrecisionScalesWithRange(t *testing.T) {
	cases := []struct {
		lo, hi float64
		a, b   float64
	}{
		{0, 1, 0.0625, 0.125},
		{0, 0.001, 0.0000625, 0.000125},
		{0, 0.5, 0.000125, 0.00025},
	}
	for _, c := range cases {
		d := pareto.KnobDecimals(c.lo, c.hi)
		la, lb := knobLabel("k", d, c.a), knobLabel("k", d, c.b)
		if la == lb {
			t.Fatalf("range [%v, %v]: knobs %v and %v share label %q", c.lo, c.hi, c.a, c.b, la)
		}
	}
}
