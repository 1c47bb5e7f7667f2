package geovmp

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// runGrid executes the reference facade grid at the given parallelism.
func runGrid(t *testing.T, parallelism int) *ResultSet {
	t.Helper()
	set, err := NewExperiment(
		WithScenarios(
			NewSpec("base", WithScale(0.01), WithSeed(5), WithHorizon(HoursOf(6)), WithFineStep(300)),
			NewSpec("tight-qos", WithScale(0.01), WithSeed(5), WithHorizon(HoursOf(6)), WithFineStep(300), WithQoS(0.999)),
		),
		WithPolicies(StandardPolicies(0.9)...),
		WithSeeds(3),
		WithParallelism(parallelism),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestExperimentParallelEqualsSerialAndLegacy is the engine's acceptance
// check: a 2-scenario x 4-policy x 3-seed grid run concurrently returns
// results in deterministic grid order identical to the serial run, and
// every cell agrees with the single-run primitive the engine grew from.
func TestExperimentParallelEqualsSerialAndLegacy(t *testing.T) {
	serial := runGrid(t, 1)
	parallel := runGrid(t, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel grid differs from serial grid")
	}
	js, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jp, err := parallel.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, jp) {
		t.Fatal("JSON export not byte-identical between parallelism 1 and 8")
	}

	// Single-run oracle: every cell must equal geovmp.Run of a fresh
	// policy on a fresh scenario built from the cell's spec — the raw
	// synthetic workload, which the run compiles for itself, against the
	// engine's shared compiled column.
	specs := []Spec{
		NewSpec("base", WithScale(0.01), WithHorizon(HoursOf(6)), WithFineStep(300)),
		NewSpec("tight-qos", WithScale(0.01), WithHorizon(HoursOf(6)), WithFineStep(300), WithQoS(0.999)),
	}
	for si, spec := range specs {
		for pi, ps := range StandardPolicies(0.9) {
			for ki, off := range parallel.SeedOffsets {
				spec.Seed = 5 + off
				sc, err := NewScenario(spec)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(sc, ps.New(spec.Seed))
				if err != nil {
					t.Fatal(err)
				}
				if cell := parallel.At(si, pi, ki); !reflect.DeepEqual(cell.Result, want) {
					t.Fatalf("engine cell (%s, %s, seed %d) differs from a single Run", cell.Scenario, cell.Policy, cell.Seed)
				}
			}
		}
	}
}

// TestExperimentDefaultsToPaperGrid asserts the zero experiment runs the
// paper's evaluation.
func TestExperimentDefaultsToPaperGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("default grid runs the four policies")
	}
	set, err := NewExperiment(
		WithScenarios(Spec{Scale: 0.01, Seed: 5, Horizon: HoursOf(4), FineStepSec: 300}),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Proposed", "Ener-aware", "Pri-aware", "Net-aware"}
	if !reflect.DeepEqual(set.Policies, want) {
		t.Fatalf("default policies = %v, want %v", set.Policies, want)
	}
	if set.Scenarios[0] != "paper-geo3dc" {
		t.Fatalf("default scenario = %q", set.Scenarios[0])
	}
}

// TestExperimentCancellation cancels after the first completed cell and
// expects a prompt partial-error return through the facade.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set, err := NewExperiment(
		WithScenarios(Spec{Scale: 0.01, Seed: 5, Horizon: HoursOf(6), FineStepSec: 300}),
		WithPolicies(StandardPolicies(0.9)...),
		WithSeeds(3),
		WithParallelism(1),
		WithProgress(func(p Progress) {
			if p.Done == 1 {
				cancel()
			}
		}),
	).Run(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled wrapper", err)
	}
	if set == nil {
		t.Fatal("cancelled run returned no partial set")
	}
	completed := 0
	for i := range set.Cells {
		if set.Cells[i].Result != nil {
			completed++
		}
	}
	if completed == 0 || completed == len(set.Cells) {
		t.Fatalf("completed = %d of %d, want a strict subset", completed, len(set.Cells))
	}
}

// TestPresetsAndCustomSites exercises the scenario-diversity surface: the
// preset registry, a custom site list with a derived mesh topology, and
// the workload-mix override.
func TestPresetsAndCustomSites(t *testing.T) {
	names := PresetNames()
	for _, want := range []string{"paper-geo3dc", "paper-geo3dc-nobattery", "geo5dc"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("preset %q missing from %v", want, names)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset did not error")
	}

	five := MustPreset("geo5dc")
	five.Scale = 0.02
	five.Seed = 9
	five.Horizon = HoursOf(4)
	five.FineStepSec = 300
	sc, err := NewScenario(five)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Fleet) != 5 {
		t.Fatalf("geo5dc fleet = %d DCs, want 5", len(sc.Fleet))
	}
	if sc.Topo.N != 5 {
		t.Fatalf("geo5dc topology N = %d, want 5", sc.Topo.N)
	}
	if err := sc.Topo.Validate(); err != nil {
		t.Fatalf("geo5dc topology invalid: %v", err)
	}
	if _, err := Run(sc, EnerAware()); err != nil {
		t.Fatalf("geo5dc run failed: %v", err)
	}

	// A custom two-site fleet with an HPC-heavy mix and warmup disabled.
	spec := NewSpec("duo",
		WithScale(1),
		WithSeed(3),
		WithHorizon(HoursOf(4)),
		WithFineStep(300),
		WithSites(
			Site{Name: "north", Servers: 8, PVkWp: 2, LatDeg: 60, LonDeg: 25, UTCOffsetHours: 2, MeanTempC: 2},
			Site{Name: "south", Servers: 8, PVkWp: 4, BattKWh: 10, LatDeg: 38, LonDeg: -9, MeanTempC: 18},
		),
		WithClassWeights(0.1, 0.1, 0.7, 0.1),
		WithWarmupSlots(-1),
		WithProfileSamples(6),
	)
	sc2, err := NewScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc2.Fleet) != 2 || sc2.Topo.N != 2 {
		t.Fatalf("custom fleet/topology size wrong: %d DCs, topo %d", len(sc2.Fleet), sc2.Topo.N)
	}
	if sc2.Topo.DistanceM[0][1] < 2000e3 || sc2.Topo.DistanceM[0][1] > 5000e3 {
		t.Fatalf("derived Helsinki-Lisbon distance %v m implausible", sc2.Topo.DistanceM[0][1])
	}
	res, err := Run(sc2, NetAware())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "duo" {
		t.Fatalf("scenario name = %q, want duo", res.Scenario)
	}
	if res.CostSeries.Len() != 4 {
		t.Fatalf("warmup disabled should measure all 4 slots, got %d", res.CostSeries.Len())
	}
}

// TestGridAndSpecValidation covers the error paths of the new surface:
// duplicate scenario names, degenerate workload mixes and unknown cities
// must fail loudly instead of producing silently-wrong sweeps.
func TestGridAndSpecValidation(t *testing.T) {
	small := func(name string) Spec {
		return Spec{Name: name, Scale: 0.01, Seed: 5, Horizon: HoursOf(2), FineStepSec: 300}
	}
	if _, err := NewExperiment(
		WithScenarios(small("dup"), small("dup")),
		WithPolicies(StandardPolicies(0.9)[:1]...),
	).Run(context.Background()); err == nil || !strings.Contains(err.Error(), "duplicate scenario") {
		t.Fatalf("duplicate scenario names: err = %v", err)
	}
	if _, err := NewScenario(NewSpec("bad-mix", WithClassWeights(0, 0, 0, 0))); err == nil {
		t.Fatal("all-zero class weights did not error")
	}
	if _, err := NewScenario(NewSpec("bad-mix-len", WithClassWeights(1, 1))); err == nil {
		t.Fatal("short class-weight vector did not error")
	}
	if _, err := NewScenario(NewSpec("bad-city", WithSites(
		Site{Name: "x", Servers: 4, City: "Lisbon"}, // tuned cities are lower-case
	))); err == nil || !strings.Contains(err.Error(), "unknown city") {
		t.Fatal("unknown City did not error")
	}
}

// TestResultSetAccessors covers grouping and the JSON export surface via
// the facade aliases.
func TestResultSetAccessors(t *testing.T) {
	set := runGrid(t, 4)
	if got := len(set.Results("base", "Proposed")); got != 3 {
		t.Fatalf("Results = %d, want 3", got)
	}
	byScenario := set.Group(func(c *ResultCell) string { return c.Scenario })
	if len(byScenario) != 2 || len(byScenario["tight-qos"]) != 12 {
		t.Fatalf("grouping by scenario wrong: %d groups, tight-qos=%d", len(byScenario), len(byScenario["tight-qos"]))
	}
	fig := set.Aggregate("tight-qos")
	if !strings.Contains(fig.Title, "tight-qos") {
		t.Fatalf("aggregate title %q missing scenario", fig.Title)
	}
	if len(fig.Rows) != 4 {
		t.Fatalf("aggregate rows = %d, want 4", len(fig.Rows))
	}
	b, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"tight-qos"`, `"cost_eur"`, `"Net-aware"`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("JSON export missing %s", want)
		}
	}
}

// stubWorkload is a comparable Workload stand-in for option tests; it is
// never run.
type stubWorkload struct{ Workload }

// TestScenarioOptionsSetFields checks that each ScenarioOption sets its own
// Spec field, that together they cover every field, and that the
// slice-taking options copy their arguments.
func TestScenarioOptionsSetFields(t *testing.T) {
	sites := TableISites()[:2]
	weights := []float64{0.4, 0.3, 0.2, 0.1}
	regimes := [][]float64{{0.7, 0.1, 0.1, 0.1}, {0.1, 0.1, 0.1, 0.7}}
	topo := PaperTopology()
	tmpl := []UsageTemplate{{Name: "t0", Weight: 1, Mean: 0.3}}
	wl := stubWorkload{}
	mig := MigrationBudget{MaxMovesPerEpoch: 5, EnergyPerGB: 1e6, DowntimeSec: 2}
	faults := ReferenceFaults()
	st := StorageConfig{Scheme: StorageErasure, K: 2, M: 2}

	got := NewSpec("all-options",
		WithScale(0.5), WithSeed(9), WithHorizon(Days(2)), WithVMsPerServer(4),
		WithFineStep(30), WithQoS(0.95), WithForecast(ForecastEWMA), WithBatteryScale(2),
		WithSites(sites...), WithTopology(topo), WithClassWeights(weights...),
		WithWarmupSlots(3), WithProfileSamples(24), WithWorkload(wl), WithReplayDir("replay"),
		WithTraceFile("vms.csv", "cpu.csv"), WithUsageTemplates(tmpl...),
		WithFineTableBudget(1<<20), WithEpochs(2),
		WithMigrationBudget(mig), WithEpochClassWeights(regimes...), WithArrivalWave(0.25),
		WithFastMath(), WithFaults(faults), WithStorage(st),
	)
	wantRegimes := [][]float64{{0.7, 0.1, 0.1, 0.1}, {0.1, 0.1, 0.1, 0.7}}
	want := Spec{
		Name: "all-options", Scale: 0.5, Seed: 9, Horizon: Days(2), VMsPerServer: 4,
		FineStepSec: 30, QoS: 0.95, Forecast: ForecastEWMA, BatteryScale: 2,
		Sites: TableISites()[:2], Topo: topo, ClassWeights: []float64{0.4, 0.3, 0.2, 0.1},
		WarmupSlots: 3, ProfileSamples: 24, Workload: wl, ReplayDir: "replay",
		TraceVMsFile: "vms.csv", TraceCPUFile: "cpu.csv", Templates: tmpl,
		MaxFineTableBytes: 1 << 20, Epochs: 2, Migration: mig,
		EpochClassWeights: wantRegimes, ArrivalWave: 0.25, FastMath: true,
		Faults: ReferenceFaults(), Storage: st,
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if wv.Field(i).IsZero() {
			t.Errorf("Spec.%s: no option under test sets it", name)
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("Spec.%s = %v, want %v", name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}

	sites[0].Servers = -1
	weights[0] = -1
	regimes[0][0] = -1
	if got.Sites[0].Servers != want.Sites[0].Servers {
		t.Error("WithSites aliases the caller's slice")
	}
	if got.ClassWeights[0] != want.ClassWeights[0] {
		t.Error("WithClassWeights aliases the caller's slice")
	}
	if got.EpochClassWeights[0][0] != want.EpochClassWeights[0][0] {
		t.Error("WithEpochClassWeights aliases the caller's rows")
	}
}
