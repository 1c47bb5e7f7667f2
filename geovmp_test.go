package geovmp

import (
	"context"
	"strings"
	"testing"
)

func testSpec() Spec {
	return Spec{Scale: 0.01, Seed: 5, Horizon: HoursOf(8), FineStepSec: 300}
}

// runPolicies evaluates each policy once on its own fresh replica of the
// scenario spec describes, through the experiment engine, and returns the
// results in input order.
func runPolicies(tb testing.TB, spec Spec, pols ...Policy) []*Result {
	tb.Helper()
	specs := make([]PolicySpec, len(pols))
	for i, p := range pols {
		specs[i] = NewPolicySpec(p.Name(), func(uint64) Policy { return p })
	}
	set, err := Experiment{Scenarios: []Spec{spec}, Policies: specs}.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]*Result, len(pols))
	for pi := range pols {
		out[pi] = set.At(0, pi, 0).Result
	}
	return out
}

func TestCompareRunsAllPolicies(t *testing.T) {
	results := runPolicies(t, testSpec(), AllPolicies(0.9, 5)...)
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	wantNames := []string{"Proposed", "Ener-aware", "Pri-aware", "Net-aware"}
	for i, r := range results {
		if r.Policy != wantNames[i] {
			t.Errorf("result %d = %q, want %q (input order preserved)", i, r.Policy, wantNames[i])
		}
		if r.TotalEnergy <= 0 {
			t.Errorf("%s consumed no energy", r.Policy)
		}
	}
}

func TestCompareIsFairAndDeterministic(t *testing.T) {
	// Running the same policy twice in one grid must give identical
	// results: each run gets a fresh identical scenario.
	results := runPolicies(t, testSpec(), EnerAware(), EnerAware())
	if results[0].OpCost != results[1].OpCost ||
		results[0].TotalEnergy != results[1].TotalEnergy {
		t.Fatal("identical policies diverged — scenario replicas are not identical")
	}
}

func TestRunSingle(t *testing.T) {
	sc, err := NewScenario(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sc, Proposed(0.9, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "Proposed" {
		t.Fatalf("policy = %q", res.Policy)
	}
}

func TestSummarizeAndFigures(t *testing.T) {
	results := runPolicies(t, testSpec(), AllPolicies(0.9, 5)...)
	sum := Summarize(results)
	for _, name := range []string{"Proposed", "Ener-aware", "Pri-aware", "Net-aware"} {
		if !strings.Contains(sum, name) {
			t.Fatalf("summary missing %s", name)
		}
	}
	sc, err := NewScenario(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	figs := Figures(sc, results)
	if len(figs) != 7 {
		t.Fatalf("figures = %d, want 7 (table1 + fig1..fig6)", len(figs))
	}
	for _, f := range figs {
		if !strings.Contains(f.Render(), f.Title) {
			t.Fatalf("%s render missing title", f.ID)
		}
	}
}

func TestHorizonHelpers(t *testing.T) {
	if Week().Slots != 168 {
		t.Fatal("Week != 168 slots")
	}
	if Days(3).Slots != 72 {
		t.Fatal("Days(3) != 72 slots")
	}
	if HoursOf(5).Slots != 5 {
		t.Fatal("HoursOf(5) != 5 slots")
	}
}

func TestPolicyConstructors(t *testing.T) {
	if Proposed(0.5, 1).Name() != "Proposed" {
		t.Fatal("Proposed name")
	}
	if EnerAware().Name() != "Ener-aware" || PriAware().Name() != "Pri-aware" || NetAware().Name() != "Net-aware" {
		t.Fatal("baseline names")
	}
	if len(AllPolicies(0.5, 1)) != 4 {
		t.Fatal("AllPolicies size")
	}
}

func TestHeadlineShapeHolds(t *testing.T) {
	// The reproduction's core qualitative claim on a small scenario: the
	// proposed method's operational cost beats every baseline, and its
	// worst-case response beats the concentrating baselines.
	if testing.Short() {
		t.Skip("shape check needs a longer horizon")
	}
	spec := Spec{Scale: 0.03, Seed: 42, Horizon: Days(1), FineStepSec: 300}
	results := runPolicies(t, spec, AllPolicies(0.9, 42)...)
	prop := results[0]
	for _, r := range results[1:] {
		if float64(prop.OpCost) >= float64(r.OpCost) {
			t.Errorf("Proposed cost %.2f not below %s %.2f", float64(prop.OpCost), r.Policy, float64(r.OpCost))
		}
	}
	ener, pri := results[1], results[2]
	if prop.RespSummary.Max() >= ener.RespSummary.Max() &&
		prop.RespSummary.Max() >= pri.RespSummary.Max() {
		t.Errorf("Proposed worst resp %.2f not below both concentrating baselines (%.2f, %.2f)",
			prop.RespSummary.Max(), ener.RespSummary.Max(), pri.RespSummary.Max())
	}
}

func TestReplayedWorkloadDrivesSimulation(t *testing.T) {
	// Export the synthetic workload, reload it, and verify the simulator
	// produces identical placement-relevant metrics — the guarantee that
	// real replayed traces are first-class inputs.
	spec := testSpec()
	scSynthetic, err := NewScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ExportWorkload(scSynthetic.Workload, dir, spec.Horizon, 12); err != nil {
		t.Fatal(err)
	}
	replay, err := LoadWorkload(dir)
	if err != nil {
		t.Fatal(err)
	}

	base, err := Run(scSynthetic, EnerAware())
	if err != nil {
		t.Fatal(err)
	}
	scReplay, err := NewScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	scReplay.Workload = replay
	got, err := Run(scReplay, EnerAware())
	if err != nil {
		t.Fatal(err)
	}
	// The replay stores 12 samples/slot vs the synthetic 5 s resolution, so
	// energies differ slightly; cost/energy must agree within a few percent
	// and migrations exactly (placement inputs are the stored profiles).
	relEnergy := (got.TotalEnergy.GJ() - base.TotalEnergy.GJ()) / base.TotalEnergy.GJ()
	if relEnergy > 0.1 || relEnergy < -0.1 {
		t.Fatalf("replayed energy off by %v%%", relEnergy*100)
	}
	if got.Migrations != base.Migrations {
		t.Fatalf("replay migrations %d != synthetic %d", got.Migrations, base.Migrations)
	}
}

// TestMultiSeedAggregate sweeps two seeds through the engine and
// aggregates them per policy.
func TestMultiSeedAggregate(t *testing.T) {
	set, err := Experiment{
		Scenarios: []Spec{testSpec()},
		Policies: []PolicySpec{
			NewPolicySpec("Proposed", func(seed uint64) Policy { return Proposed(0.9, seed) }),
			NewPolicySpec("Net-aware", func(uint64) Policy { return NetAware() }),
		},
		Seeds: 2,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Different seeds must actually differ.
	if set.At(0, 1, 0).Result.OpCost == set.At(0, 1, 1).Result.OpCost {
		t.Fatal("seed increment had no effect")
	}
	fig := set.Aggregate(set.Scenarios[0])
	if len(fig.Rows) != 2 {
		t.Fatalf("aggregate rows = %d", len(fig.Rows))
	}
	if !strings.Contains(fig.Render(), "Proposed") {
		t.Fatal("aggregate missing policy")
	}
}
