package experiment

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

func testSpec(name string, seed uint64) config.Spec {
	return config.Spec{
		Name:        name,
		Scale:       0.01,
		Seed:        seed,
		Horizon:     timeutil.Hours(6),
		FineStepSec: 300,
	}
}

func testPolicies() []PolicySpec {
	return []PolicySpec{
		{Name: "Proposed", New: func(seed uint64) policy.Policy { return core.New(0.9, seed) }},
		{Name: "Ener-aware", New: func(uint64) policy.Policy { return policy.EnerAware{} }},
	}
}

func testGrid(parallelism int) Grid {
	return Grid{
		Scenarios: []config.Spec{
			testSpec("a", 5),
			testSpec("b", 11),
		},
		Policies:    testPolicies(),
		SeedOffsets: []uint64{0, 1, 2},
		Parallelism: parallelism,
	}
}

// TestParallelMatchesSerial is the engine's core guarantee: a sweep's Set
// is byte-identical (JSON) and deeply equal no matter how many workers ran
// it, and cells come back in grid order.
func TestParallelMatchesSerial(t *testing.T) {
	serial, err := Run(context.Background(), testGrid(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), testGrid(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel sweep differs from serial sweep")
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
		t.Fatal("JSON export differs between serial and parallel sweeps")
	}

	// Grid order: scenario-major, then policy, then seed offset.
	wantScenario := []string{"a", "a", "a", "a", "a", "a", "b", "b", "b", "b", "b", "b"}
	wantPolicy := []string{"Proposed", "Proposed", "Proposed", "Ener-aware", "Ener-aware", "Ener-aware"}
	wantSeedA := []uint64{5, 6, 7}
	if len(serial.Cells) != 12 {
		t.Fatalf("cells = %d, want 12", len(serial.Cells))
	}
	for i, c := range serial.Cells {
		if c.Scenario != wantScenario[i] {
			t.Errorf("cell %d scenario = %q, want %q", i, c.Scenario, wantScenario[i])
		}
		if i < 6 && c.Policy != wantPolicy[i] {
			t.Errorf("cell %d policy = %q, want %q", i, c.Policy, wantPolicy[i])
		}
		if i < 3 && c.Seed != wantSeedA[i] {
			t.Errorf("cell %d seed = %d, want %d", i, c.Seed, wantSeedA[i])
		}
		if c.Result == nil {
			t.Errorf("cell %d has no result", i)
		}
	}
}

// TestSeedOffsetsDiversify asserts different offsets actually change the
// workload.
func TestSeedOffsetsDiversify(t *testing.T) {
	set, err := Run(context.Background(), testGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	a0 := set.At(0, 1, 0).Result
	a1 := set.At(0, 1, 1).Result
	if a0.OpCost == a1.OpCost && a0.TotalEnergy == a1.TotalEnergy {
		t.Fatal("seed offset had no effect")
	}
}

// TestCancellation cancels mid-sweep and expects a prompt partial-error
// return: the Set covers the full grid, completed cells keep results, and
// the remaining cells carry context.Canceled.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := testGrid(1)
	g.Progress = func(p Progress) {
		if p.Done == 1 {
			cancel()
		}
	}
	set, err := Run(ctx, g)
	if err == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if set == nil || len(set.Cells) != 12 {
		t.Fatalf("partial set missing or wrong size")
	}
	completed, cancelled := 0, 0
	for i := range set.Cells {
		switch {
		case set.Cells[i].Result != nil:
			completed++
		case errors.Is(set.Cells[i].Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("cell %d has neither result nor cancellation error", i)
		}
	}
	if completed == 0 {
		t.Error("no cell completed before cancellation")
	}
	if cancelled == 0 {
		t.Error("no cell was cancelled")
	}
}

// TestGroupingAndAggregate exercises the Set accessors.
func TestGroupingAndAggregate(t *testing.T) {
	set, err := Run(context.Background(), testGrid(4))
	if err != nil {
		t.Fatal(err)
	}
	res := set.Results("a", "Proposed")
	if len(res) != 3 {
		t.Fatalf("Results = %d, want 3 (one per seed)", len(res))
	}
	byPolicy := set.Group(func(c *Cell) string { return c.Policy })
	if len(byPolicy["Proposed"]) != 6 {
		t.Fatalf("group Proposed = %d cells, want 6", len(byPolicy["Proposed"]))
	}
	fig := set.Aggregate("a")
	if len(fig.Rows) != 2 {
		t.Fatalf("aggregate rows = %d, want 2", len(fig.Rows))
	}
}

// TestAggregateMeanStd pins Aggregate's statistics: per policy the mean
// and population standard deviation across seeds, in grid policy order,
// over live and flattened cells alike; an unknown scenario or an empty set
// yields no rows.
func TestAggregateMeanStd(t *testing.T) {
	set := &Set{Scenarios: []string{"s"}, Policies: []string{"Proposed", "Net-aware"}, SeedOffsets: []uint64{0, 1}}
	cost := [][]float64{{100, 120}, {150, 150}}
	for pi := range set.Policies {
		for ki := range set.SeedOffsets {
			c := Cell{Policy: set.Policies[pi], Data: &CellData{CostEUR: cost[pi][ki]}}
			if pi == 0 && ki == 0 {
				c = Cell{Policy: set.Policies[pi], Result: &sim.Result{OpCost: units.Money(cost[pi][ki])}}
			}
			set.Cells = append(set.Cells, c)
		}
	}
	f := set.Aggregate("s")
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(f.Rows))
	}
	if f.Rows[0][0] != "Proposed" {
		t.Fatalf("order lost: %v", f.Rows[0])
	}
	if f.Rows[0][1] != "110.00" || f.Rows[0][2] != "10.00" {
		t.Fatalf("Proposed cost mean/std = %s/%s, want 110.00/10.00", f.Rows[0][1], f.Rows[0][2])
	}
	if f.Rows[1][1] != "150.00" || f.Rows[1][2] != "0.00" {
		t.Fatalf("Net-aware cost mean/std = %s/%s, want 150.00/0.00", f.Rows[1][1], f.Rows[1][2])
	}
	if rows := set.Aggregate("missing").Rows; len(rows) != 0 {
		t.Fatalf("unknown scenario aggregated %d rows", len(rows))
	}
	if rows := (&Set{}).Aggregate("s").Rows; len(rows) != 0 {
		t.Fatalf("empty set aggregated %d rows", len(rows))
	}
}

// TestProgressReporting asserts every cell produces exactly one progress
// event and Done reaches Total.
func TestProgressReporting(t *testing.T) {
	g := testGrid(3)
	var events int
	var lastDone int
	g.Progress = func(p Progress) {
		events++
		lastDone = p.Done
		if p.Total != 12 {
			t.Errorf("total = %d, want 12", p.Total)
		}
		if p.Cell == nil || p.Cell.Result == nil {
			t.Error("progress cell missing result")
		}
	}
	if _, err := Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if events != 12 || lastDone != 12 {
		t.Fatalf("events = %d, lastDone = %d, want 12/12", events, lastDone)
	}
}
