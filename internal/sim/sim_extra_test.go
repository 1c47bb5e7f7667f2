package sim_test

import (
	"testing"

	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/trace"
)

func TestProposedOnReplayedWorkload(t *testing.T) {
	// The stateful proposed controller must run cleanly on a replayed
	// workload: export, reload, simulate.
	sc := tinyScenario(t, 41)
	dir := t.TempDir()
	if err := trace.ExportReplay(sc.Workload, dir, sc.Horizon.Slots, 12); err != nil {
		t.Fatal(err)
	}
	replay, err := trace.LoadReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc2 := tinyScenario(t, 41)
	sc2.Workload = replay
	res, err := sim.Run(sc2, core.New(0.9, 41))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalEnergy <= 0 {
		t.Fatal("replayed proposed run consumed no energy")
	}
	if len(res.FinalPlacement) == 0 {
		t.Fatal("no final placement recorded")
	}
}

func TestFinalPlacementCoversLastSlot(t *testing.T) {
	sc := tinyScenario(t, 43)
	res, err := sim.Run(sc, policy.NetAware{})
	if err != nil {
		t.Fatal(err)
	}
	last := sc.Horizon.Slots - 1
	for _, id := range sc.Workload.ActiveVMs(last) {
		if _, ok := res.FinalPlacement[id]; !ok {
			t.Fatalf("VM %d active in the last slot but missing from FinalPlacement", id)
		}
	}
}

func TestBatteryStateEvolvesAcrossRun(t *testing.T) {
	sc := tinyScenario(t, 47)
	before := sc.Fleet[0].Bank.Usable()
	if _, err := sim.Run(sc, policy.EnerAware{}); err != nil {
		t.Fatal(err)
	}
	after := sc.Fleet[0].Bank.Usable()
	if before == after {
		t.Fatal("battery state untouched by an 8-hour run")
	}
}

func TestForecasterLearnsDuringRun(t *testing.T) {
	sc := tinyScenario(t, 53)
	if _, err := sim.Run(sc, policy.EnerAware{}); err != nil {
		t.Fatal(err)
	}
	// After daytime slots, the last-value... the default is WCMA; its
	// forecast for the next slot should be non-negative and finite, and at
	// least one DC should have seen sun.
	sawSun := false
	for _, d := range sc.Fleet {
		if d.Forecast.Forecast(sc.Horizon.Slots) > 0 {
			sawSun = true
		}
	}
	if !sawSun {
		t.Log("no positive forecast after 8 early-morning slots (acceptable at night)")
	}
}
