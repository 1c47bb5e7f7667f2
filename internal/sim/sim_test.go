package sim_test

import (
	"math"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
)

// tinyScenario is small enough for unit tests: ~20 servers, 8 hours, 5 min
// green steps.
func tinyScenario(t *testing.T, seed uint64) *sim.Scenario {
	t.Helper()
	sc, err := config.Build(config.Spec{
		Scale:       0.01,
		Seed:        seed,
		Horizon:     timeutil.Hours(8),
		FineStepSec: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func allPolicies(seed uint64) []policy.Policy {
	return []policy.Policy{
		core.New(0.9, seed),
		policy.EnerAware{},
		policy.PriAware{},
		policy.NetAware{},
	}
}

func TestRunAllPolicies(t *testing.T) {
	for _, pol := range allPolicies(5) {
		res, err := sim.Run(tinyScenario(t, 5), pol)
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if res.Policy != pol.Name() {
			t.Errorf("%s: result policy name %q", pol.Name(), res.Policy)
		}
		if res.TotalEnergy <= 0 {
			t.Errorf("%s: no energy consumed", pol.Name())
		}
		if res.OpCost < 0 {
			t.Errorf("%s: negative cost %v", pol.Name(), res.OpCost)
		}
		if res.MeanActiveServers <= 0 {
			t.Errorf("%s: no active servers", pol.Name())
		}
	}
}

func TestMetricsShapes(t *testing.T) {
	sc := tinyScenario(t, 7)
	res, err := sim.Run(sc, policy.EnerAware{})
	if err != nil {
		t.Fatal(err)
	}
	measured := int(sc.Horizon.Slots) - sc.WarmupSlots
	if res.CostSeries.Len() != measured {
		t.Fatalf("cost series %d points, want %d", res.CostSeries.Len(), measured)
	}
	if res.EnergySeries.Len() != measured {
		t.Fatalf("energy series %d points, want %d", res.EnergySeries.Len(), measured)
	}
	if len(res.RespSamples) != measured*len(sc.Fleet) {
		t.Fatalf("resp samples %d, want %d", len(res.RespSamples), measured*len(sc.Fleet))
	}
	if res.RespSummary.N() != len(res.RespSamples) {
		t.Fatal("summary count mismatch")
	}
	// Series totals must agree with scalar totals.
	var seriesGJ float64
	for _, v := range res.EnergySeries.Y {
		seriesGJ += v
	}
	if math.Abs(seriesGJ-res.TotalEnergy.GJ()) > 1e-9 {
		t.Fatalf("energy series %v GJ vs total %v", seriesGJ, res.TotalEnergy.GJ())
	}
	var perDC float64
	for _, e := range res.EnergyPerDC {
		perDC += e.GJ()
	}
	if math.Abs(perDC-res.TotalEnergy.GJ()) > 1e-9 {
		t.Fatal("per-DC energies disagree with total")
	}
	var costSum float64
	for _, c := range res.CostPerDC {
		costSum += float64(c)
	}
	if math.Abs(costSum-float64(res.OpCost)) > 1e-6 {
		t.Fatal("per-DC costs disagree with total")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := sim.Run(tinyScenario(t, 11), core.New(0.9, 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(tinyScenario(t, 11), core.New(0.9, 11))
	if err != nil {
		t.Fatal(err)
	}
	if a.OpCost != b.OpCost || a.TotalEnergy != b.TotalEnergy ||
		a.Migrations != b.Migrations || a.RespSummary.Max() != b.RespSummary.Max() {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, err := sim.Run(tinyScenario(t, 1), policy.NetAware{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(tinyScenario(t, 2), policy.NetAware{})
	if err != nil {
		t.Fatal(err)
	}
	if a.OpCost == b.OpCost && a.TotalEnergy == b.TotalEnergy {
		t.Fatal("different seeds produced identical results")
	}
}

func TestEnergySourcesAddUp(t *testing.T) {
	res, err := sim.Run(tinyScenario(t, 13), policy.PriAware{})
	if err != nil {
		t.Fatal(err)
	}
	// Demand is served by renewable + battery + grid-to-load; grid total
	// also includes battery charging, so GridEnergy can exceed the load
	// share. The recoverable identities are inequalities:
	if res.GridEnergy < 0 || res.RenewableUsed < 0 || res.BatteryOut < 0 {
		t.Fatal("negative source flow")
	}
	served := res.RenewableUsed + res.BatteryOut
	if served > res.TotalEnergy+res.GridEnergy {
		t.Fatal("sources exceed demand plus grid")
	}
}

func TestValidateRejectsBadScenarios(t *testing.T) {
	sc := tinyScenario(t, 17)
	sc.Workload = nil
	if _, err := sim.Run(sc, policy.EnerAware{}); err == nil {
		t.Fatal("nil workload accepted")
	}

	sc = tinyScenario(t, 17)
	sc.Topo = nil
	if _, err := sim.Run(sc, policy.EnerAware{}); err == nil {
		t.Fatal("nil topology accepted")
	}

	sc = tinyScenario(t, 17)
	sc.Horizon = timeutil.Days(30) // beyond the workload's week
	if _, err := sim.Run(sc, policy.EnerAware{}); err == nil {
		t.Fatal("horizon beyond workload accepted")
	}

	sc = tinyScenario(t, 17)
	sc.Fleet = sc.Fleet[:2] // topology says 3
	if _, err := sim.Run(sc, policy.EnerAware{}); err == nil {
		t.Fatal("fleet/topology mismatch accepted")
	}
}

func TestWarmupExcluded(t *testing.T) {
	sc := tinyScenario(t, 19)
	sc.WarmupSlots = 4
	res, err := sim.Run(sc, policy.NetAware{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostSeries.Len() != int(sc.Horizon.Slots)-4 {
		t.Fatalf("warmup not excluded: %d points", res.CostSeries.Len())
	}
	// First measured slot index is the warmup boundary.
	if res.CostSeries.X[0] != 4 {
		t.Fatalf("series starts at slot %v, want 4", res.CostSeries.X[0])
	}
}

func TestWarmupDisabledWithNegative(t *testing.T) {
	sc := tinyScenario(t, 19)
	sc.WarmupSlots = -1
	res, err := sim.Run(sc, policy.NetAware{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostSeries.Len() != int(sc.Horizon.Slots) {
		t.Fatalf("negative warmup not disabled: %d points", res.CostSeries.Len())
	}
}

func TestResponseSamplesNonNegative(t *testing.T) {
	res, err := sim.Run(tinyScenario(t, 23), core.New(0.9, 23))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.RespSamples {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("sample %d invalid: %v", i, v)
		}
	}
}

func TestMigrationAccounting(t *testing.T) {
	res, err := sim.Run(tinyScenario(t, 29), policy.PriAware{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations > 0 && res.MigratedBytes <= 0 {
		t.Fatal("migrations recorded without bytes")
	}
	if res.Migrations == 0 && res.MigratedBytes != 0 {
		t.Fatal("bytes recorded without migrations")
	}
}

func TestTrafficSplitRecorded(t *testing.T) {
	res, err := sim.Run(tinyScenario(t, 31), policy.NetAware{})
	if err != nil {
		t.Fatal(err)
	}
	if res.IntraBytes+res.CrossBytes <= 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestFineStepEquivalenceOrder(t *testing.T) {
	// Energy at 60 s steps should be within a few percent of 300 s steps —
	// the integrator must not be wildly step-size dependent.
	scA := tinyScenario(t, 37)
	scA.FineStepSec = 60
	a, err := sim.Run(scA, policy.EnerAware{})
	if err != nil {
		t.Fatal(err)
	}
	scB := tinyScenario(t, 37)
	scB.FineStepSec = 300
	b, err := sim.Run(scB, policy.EnerAware{})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(a.TotalEnergy.GJ()-b.TotalEnergy.GJ()) / a.TotalEnergy.GJ()
	if rel > 0.05 {
		t.Fatalf("energy differs %v%% between step sizes", rel*100)
	}
}
