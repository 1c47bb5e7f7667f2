package config

import (
	"math"
	"reflect"
	"testing"

	"geovmp/internal/core"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
)

// runSpec builds a fresh scenario for spec and simulates a fresh proposed
// controller over it.
func runSpec(t *testing.T, spec Spec) *sim.Result {
	t.Helper()
	sc, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sc, core.New(0.9, spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEpochsOneMatchesStatic is the rolling-horizon engine's equivalence
// contract: Epochs = 1 — one epoch spanning the horizon, no migration
// budget — must reproduce the static path's Result byte for byte, across
// presets and seeds. Anyone routing Epochs=1 through new engine machinery
// must keep this green without touching the expectation.
func TestEpochsOneMatchesStatic(t *testing.T) {
	for _, preset := range []string{"paper-geo3dc", "geo5dc"} {
		for _, seed := range []uint64{7, 19} {
			spec := compileSpec(t, preset, seed)
			static := runSpec(t, spec)
			spec.Epochs = 1
			rolling := runSpec(t, spec)
			if !reflect.DeepEqual(static, rolling) {
				t.Errorf("%s seed %d: Epochs=1 run differs from the static path", preset, seed)
			}
		}
	}
}

// dynamicSpec is the reduced rolling-horizon scenario the accounting tests
// share: the geo5dc-dynamic preset shrunk to test size, keeping its four
// epochs and shifting class mix.
func dynamicSpec(t *testing.T, seed uint64) Spec {
	t.Helper()
	spec, err := Preset("geo5dc-dynamic")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.01
	spec.Seed = seed
	spec.Horizon = timeutil.Hours(12)
	spec.FineStepSec = 300
	return spec
}

// TestRollingEpochAccounting checks the per-epoch breakdown's books: one
// stat per epoch covering the whole horizon, integer counters summing
// exactly to the headline totals, and cost/energy summing to the totals up
// to float re-association.
func TestRollingEpochAccounting(t *testing.T) {
	res := runSpec(t, dynamicSpec(t, 5))
	if len(res.Epochs) != 4 {
		t.Fatalf("epoch stats = %d, want 4", len(res.Epochs))
	}
	var migrations, rejected int
	var cost, energy float64
	prevEnd := 0
	for _, es := range res.Epochs {
		if es.StartSlot != prevEnd {
			t.Fatalf("epoch %d starts at %d, want %d", es.Epoch, es.StartSlot, prevEnd)
		}
		prevEnd = es.EndSlot
		migrations += es.Migrations
		rejected += es.MigRejected
		cost += float64(es.Cost)
		energy += float64(es.Energy)
	}
	if prevEnd != 12 {
		t.Fatalf("epochs end at slot %d, want 12", prevEnd)
	}
	if migrations != res.Migrations {
		t.Fatalf("per-epoch migrations sum %d != headline %d", migrations, res.Migrations)
	}
	if rejected != res.MigRejected {
		t.Fatalf("per-epoch rejections sum %d != headline %d", rejected, res.MigRejected)
	}
	if relDiff(cost, float64(res.OpCost)) > 1e-9 {
		t.Fatalf("per-epoch cost sum %v != OpCost %v", cost, res.OpCost)
	}
	if relDiff(energy, float64(res.TotalEnergy)) > 1e-9 {
		t.Fatalf("per-epoch energy sum %v != TotalEnergy %v", energy, res.TotalEnergy)
	}
	if res.Migrations == 0 {
		t.Fatal("dynamic scenario executed no migrations; accounting untested")
	}
	if res.MigEnergy <= 0 || res.MigDowntimeSec <= 0 {
		t.Fatalf("default charging produced MigEnergy=%v MigDowntimeSec=%v", res.MigEnergy, res.MigDowntimeSec)
	}
}

// TestMigrationBudgetForbidsMoves pins the budget semantics end to end: a
// negative per-epoch budget executes nothing (wishes become rejections), a
// small positive budget caps executed moves per epoch.
func TestMigrationBudgetForbidsMoves(t *testing.T) {
	spec := dynamicSpec(t, 5)
	spec.Migration = sim.MigrationBudget{MaxMovesPerEpoch: -1}
	res := runSpec(t, spec)
	if res.Migrations != 0 {
		t.Fatalf("forbidden migration executed %d moves", res.Migrations)
	}
	if res.MigRejected == 0 {
		t.Fatal("forbidden migration rejected nothing — the clustering never wanted to move?")
	}
	if res.MigEnergy != 0 || res.MigDowntimeSec != 0 {
		t.Fatalf("no moves but charged MigEnergy=%v MigDowntimeSec=%v", res.MigEnergy, res.MigDowntimeSec)
	}

	spec.Migration = sim.MigrationBudget{MaxMovesPerEpoch: 3}
	capped := runSpec(t, spec)
	for _, es := range capped.Epochs {
		if es.Migrations > 3 {
			t.Fatalf("epoch %d executed %d moves over a budget of 3", es.Epoch, es.Migrations)
		}
	}
	if capped.Migrations == 0 {
		t.Fatal("budget of 3 per epoch executed nothing")
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
