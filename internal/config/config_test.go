package config

import (
	"math"
	"testing"

	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
	"geovmp/internal/units"
)

func TestBuildPaperScale(t *testing.T) {
	sc, err := Build(Spec{Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table I numbers.
	wantServers := []int{1500, 1000, 500}
	wantPVkW := []float64{150, 100, 50}
	wantBattKWh := []float64{960, 720, 480}
	for i, d := range sc.Fleet {
		if d.Servers != wantServers[i] {
			t.Errorf("DC%d servers = %d, want %d", i+1, d.Servers, wantServers[i])
		}
		if math.Abs(d.Plant.Peak.KW()-wantPVkW[i]) > 1e-9 {
			t.Errorf("DC%d PV = %v kW, want %v", i+1, d.Plant.Peak.KW(), wantPVkW[i])
		}
		if math.Abs(d.Bank.Capacity().KWh()-wantBattKWh[i]) > 1e-9 {
			t.Errorf("DC%d battery = %v kWh, want %v", i+1, d.Bank.Capacity().KWh(), wantBattKWh[i])
		}
	}
	if sc.Horizon != timeutil.Week() {
		t.Fatalf("default horizon = %v, want a week", sc.Horizon)
	}
	if sc.QoS != 0.98 {
		t.Fatalf("QoS = %v, want 0.98", sc.QoS)
	}
}

func TestBuildScaling(t *testing.T) {
	sc, err := Build(Spec{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fleet[0].Servers != 150 || sc.Fleet[1].Servers != 100 || sc.Fleet[2].Servers != 50 {
		t.Fatalf("scaled servers wrong: %d %d %d",
			sc.Fleet[0].Servers, sc.Fleet[1].Servers, sc.Fleet[2].Servers)
	}
	if math.Abs(sc.Fleet[0].Plant.Peak.KW()-15) > 1e-9 {
		t.Fatalf("scaled PV = %v", sc.Fleet[0].Plant.Peak.KW())
	}
}

func TestBuildWorkloadSizing(t *testing.T) {
	sc, err := Build(Spec{Scale: 0.02, Seed: 3, VMsPerServer: 4, Horizon: timeutil.Days(1)})
	if err != nil {
		t.Fatal(err)
	}
	total := sc.Fleet.TotalServers()
	got := len(sc.Workload.ActiveVMs(0))
	if got != 4*total {
		t.Fatalf("initial VMs = %d, want %d", got, 4*total)
	}
}

func TestBatteryScale(t *testing.T) {
	sc, err := Build(Spec{Scale: 0.1, Seed: 1, BatteryScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sc.Fleet[0].Bank.Capacity().KWh()-192) > 1e-9 {
		t.Fatalf("battery scale ignored: %v kWh", sc.Fleet[0].Bank.Capacity().KWh())
	}
	tiny, err := Build(Spec{Scale: 0.1, Seed: 1, BatteryScale: BatteryZero})
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Fleet[0].Bank.Capacity() > units.Energy(1*units.KilowattHour) {
		t.Fatalf("BatteryZero not tiny: %v", tiny.Fleet[0].Bank.Capacity())
	}
}

func TestForecastKinds(t *testing.T) {
	wants := map[ForecastKind]string{
		ForecastWCMA:      "wcma",
		ForecastEWMA:      "ewma",
		ForecastLastValue: "last-value",
		ForecastOracle:    "oracle",
	}
	for kind, want := range wants {
		sc, err := Build(Spec{Scale: 0.01, Seed: 1, Forecast: kind})
		if err != nil {
			t.Fatal(err)
		}
		if got := sc.Fleet[0].Forecast.Name(); got != want {
			t.Errorf("kind %d: forecaster %q, want %q", kind, got, want)
		}
	}
}

func TestIndependentState(t *testing.T) {
	a, err := Build(Spec{Scale: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Spec{Scale: 0.01, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Draining a's battery must not affect b's.
	a.Fleet[0].Bank.Discharge(units.Power(1e9), 3600)
	if a.Fleet[0].Bank.Usable() == b.Fleet[0].Bank.Usable() {
		t.Fatal("scenarios share battery state")
	}
}

func TestIdenticalWorkloads(t *testing.T) {
	a, _ := Build(Spec{Scale: 0.01, Seed: 9})
	b, _ := Build(Spec{Scale: 0.01, Seed: 9})
	if a.Workload.NumVMs() != b.Workload.NumVMs() {
		t.Fatal("same-seed workloads differ")
	}
	for st := 0; st < 100; st++ {
		if a.Workload.Util(0, timeutil.Step(st)) != b.Workload.Util(0, timeutil.Step(st)) {
			t.Fatal("same-seed traces differ")
		}
	}
}

func TestMinimumServers(t *testing.T) {
	sc, err := Build(Spec{Scale: 1e-9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sc.Fleet {
		if d.Servers < 1 {
			t.Fatalf("%s has %d servers", d.Name, d.Servers)
		}
	}
}

func TestTraceSourceSpecValidation(t *testing.T) {
	if _, err := Build(Spec{Scale: 0.01, TraceVMsFile: "vms.csv"}); err == nil {
		t.Fatal("TraceVMsFile without TraceCPUFile accepted")
	}
	if _, err := Build(Spec{Scale: 0.01, TraceCPUFile: "cpu.csv"}); err == nil {
		t.Fatal("TraceCPUFile without TraceVMsFile accepted")
	}
	if _, err := Build(Spec{Scale: 0.01, ReplayDir: "d", TraceVMsFile: "v", TraceCPUFile: "c"}); err == nil {
		t.Fatal("ReplayDir combined with a raw trace accepted")
	}
	if _, err := Build(Spec{Scale: 0.01, ReplayDir: "/nonexistent-replay-dir"}); err == nil {
		t.Fatal("missing replay directory accepted")
	}
}

func TestReplayDirSpecDrivesWorkload(t *testing.T) {
	src, err := Build(Spec{Scale: 0.01, Seed: 4, Horizon: timeutil.Hours(4), FineStepSec: 300})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := trace.ExportReplay(src.Workload, dir, 4, 12); err != nil {
		t.Fatal(err)
	}
	sc, err := Build(Spec{Name: "replayed",
		Scale: 0.01, Seed: 4, Horizon: timeutil.Hours(4),
		FineStepSec: 300, ReplayDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Workload.NumVMs() != src.Workload.NumVMs() {
		t.Fatalf("replayed fleet %d VMs, source %d", sc.Workload.NumVMs(), src.Workload.NumVMs())
	}
}

func TestFineBudgetSpecReachesCompile(t *testing.T) {
	spec := Spec{Name: "budgeted",
		Scale: 0.01, Seed: 2, Horizon: timeutil.Hours(4),
		FineStepSec: 300, MaxFineTableBytes: 1}
	c, err := CompileWorkload(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.FineChunkSlots(); got != 1 {
		t.Fatalf("1-byte budget streams %d-slot windows, want 1", got)
	}
}

// TestValidateRejectsNegativeFineBudget: the fine table is always built, so
// a negative budget names no mode and fails validation and Build alike; 0
// (the default) and positive budgets pass.
func TestValidateRejectsNegativeFineBudget(t *testing.T) {
	spec := Spec{Scale: 0.01, Seed: 1, Horizon: timeutil.Hours(2), MaxFineTableBytes: -1}
	if err := spec.Validate(); err == nil {
		t.Fatal("Validate accepted a negative fine-table budget")
	}
	if _, err := Build(spec); err == nil {
		t.Fatal("Build accepted a negative fine-table budget")
	}
	for _, budget := range []int64{0, 1, 4 << 20} {
		spec.MaxFineTableBytes = budget
		if err := spec.Validate(); err != nil {
			t.Fatalf("budget %d rejected: %v", budget, err)
		}
	}
}
