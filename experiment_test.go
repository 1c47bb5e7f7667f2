package geovmp

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// runGrid executes the reference facade grid at the given parallelism.
func runGrid(t *testing.T, parallelism int) *ResultSet {
	t.Helper()
	set, err := Experiment{
		Scenarios: []Spec{
			{Name: "base", Scale: 0.01, Seed: 5, Horizon: HoursOf(6), FineStepSec: 300},
			{Name: "tight-qos", Scale: 0.01, Seed: 5, Horizon: HoursOf(6), FineStepSec: 300, QoS: 0.999},
		},
		Policies:    StandardPolicies(0.9),
		Seeds:       3,
		Parallelism: parallelism,
	}.Run(context.Background())
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
		{Name: "base", Scale: 0.01, Horizon: HoursOf(6), FineStepSec: 300},
		{Name: "tight-qos", Scale: 0.01, Horizon: HoursOf(6), FineStepSec: 300, QoS: 0.999},
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
	set, err := Experiment{
		Scenarios: []Spec{{Scale: 0.01, Seed: 5, Horizon: HoursOf(4), FineStepSec: 300}},
	}.Run(context.Background())
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
	if !reflect.DeepEqual(set.SeedOffsets, []uint64{0}) {
		t.Fatalf("default seed offsets = %v, want one seed", set.SeedOffsets)
	}
}

// TestExperimentCancellation cancels after the first completed cell and
// expects a prompt partial-error return through the facade.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	set, err := Experiment{
		Scenarios:   []Spec{{Scale: 0.01, Seed: 5, Horizon: HoursOf(6), FineStepSec: 300}},
		Policies:    StandardPolicies(0.9),
		Seeds:       3,
		Parallelism: 1,
		Progress: func(p Progress) {
			if p.Done == 1 {
				cancel()
			}
		},
	}.Run(ctx)
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
	spec := Spec{
		Name:        "duo",
		Scale:       1,
		Seed:        3,
		Horizon:     HoursOf(4),
		FineStepSec: 300,
		Sites: []Site{
			{Name: "north", Servers: 8, PVkWp: 2, LatDeg: 60, LonDeg: 25, UTCOffsetHours: 2, MeanTempC: 2},
			{Name: "south", Servers: 8, PVkWp: 4, BattKWh: 10, LatDeg: 38, LonDeg: -9, MeanTempC: 18},
		},
		ClassWeights:   []float64{0.1, 0.1, 0.7, 0.1},
		WarmupSlots:    -1,
		ProfileSamples: 6,
	}
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
// a negative seed count, duplicate scenario names, degenerate workload
// mixes and unknown cities must fail loudly instead of producing
// silently-wrong sweeps.
func TestGridAndSpecValidation(t *testing.T) {
	small := func(name string) Spec {
		return Spec{Name: name, Scale: 0.01, Seed: 5, Horizon: HoursOf(2), FineStepSec: 300}
	}
	if _, err := (Experiment{Seeds: -1}).Run(context.Background()); err == nil {
		t.Fatal("negative seeds did not error")
	}
	if _, err := (Experiment{
		Scenarios: []Spec{small("dup"), small("dup")},
		Policies:  StandardPolicies(0.9)[:1],
	}).Run(context.Background()); err == nil || !strings.Contains(err.Error(), "duplicate scenario") {
		t.Fatalf("duplicate scenario names: err = %v", err)
	}
	if _, err := NewScenario(Spec{Name: "bad-mix", ClassWeights: []float64{0, 0, 0, 0}}); err == nil {
		t.Fatal("all-zero class weights did not error")
	}
	if _, err := NewScenario(Spec{Name: "bad-mix-len", ClassWeights: []float64{1, 1}}); err == nil {
		t.Fatal("short class-weight vector did not error")
	}
	if _, err := NewScenario(Spec{Name: "bad-city", Sites: []Site{
		{Name: "x", Servers: 4, City: "Lisbon"}, // tuned cities are lower-case
	}}); err == nil || !strings.Contains(err.Error(), "unknown city") {
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

// TestSpecSlicesUnmodified checks that building a scenario and sweeping
// it leave the slices a Spec holds as the caller wrote them: a Spec keeps
// them without copying, so one mutation anywhere would leak into every
// other spec sharing them.
func TestSpecSlicesUnmodified(t *testing.T) {
	spec := Spec{
		Name: "shared-slices", Scale: 0.01, Seed: 5, Horizon: HoursOf(6), FineStepSec: 300,
		Sites:             TableISites(),
		ClassWeights:      []float64{0.4, 0.3, 0.2, 0.1},
		EpochClassWeights: [][]float64{{0.7, 0.1, 0.1, 0.1}, {0.1, 0.1, 0.1, 0.7}},
		Templates: []UsageTemplate{
			{Name: "steady", Weight: 2, Mean: 0.3, Amp: 0.1, PeakHour: 14, FastAmp: 0.05},
			{Name: "bursty", Weight: 1, Mean: 0.5, Amp: 0.3, PeakHour: 3, SlowAmp: 0.1},
		},
		Faults: FaultConfig{Outages: []Outage{
			{Kind: FaultServer, DC: 1, Start: 1, Slots: 2, Frac: 0.5},
			{Kind: FaultLink, DC: 0, To: 2, Start: 2, Slots: 2, Frac: 0.1},
		}},
		Epochs: 2,
	}
	want := Spec{
		Sites:             TableISites(),
		ClassWeights:      slices.Clone(spec.ClassWeights),
		EpochClassWeights: [][]float64{slices.Clone(spec.EpochClassWeights[0]), slices.Clone(spec.EpochClassWeights[1])},
		Templates:         slices.Clone(spec.Templates),
		Faults:            FaultConfig{Outages: slices.Clone(spec.Faults.Outages)},
	}

	sc, err := NewScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sc, Proposed(0.9, spec.Seed)); err != nil {
		t.Fatal(err)
	}
	if _, err := (Experiment{
		Scenarios:   []Spec{spec},
		Policies:    StandardPolicies(0.9)[:2],
		Seeds:       2,
		Parallelism: 2,
	}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		field     string
		got, want any
	}{
		{"Sites", spec.Sites, want.Sites},
		{"ClassWeights", spec.ClassWeights, want.ClassWeights},
		{"EpochClassWeights", spec.EpochClassWeights, want.EpochClassWeights},
		{"Templates", spec.Templates, want.Templates},
		{"Faults.Outages", spec.Faults.Outages, want.Faults.Outages},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("Spec.%s changed: %v, want %v", c.field, c.got, c.want)
		}
	}
}
