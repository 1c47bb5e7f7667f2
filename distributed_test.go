package geovmp

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// distWorkers connects n in-process workers to the coordinator and returns
// a wait function that blocks until they have all drained.
func distWorkers(ctx context.Context, t *testing.T, coord *Coordinator, n int) func() {
	t.Helper()
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		go func() {
			done <- RunDistWorker(ctx, DistWorkerConfig{
				Coordinator: coord.URL(),
				Name:        name,
				Parallelism: 1,
				Poll:        10 * time.Millisecond,
			})
		}()
	}
	return func() {
		for i := 0; i < n; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("dist worker: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Errorf("dist worker %d did not drain", i)
				return
			}
		}
	}
}

// TestRunDistributedMatchesRun: the public API round trip — the same
// Experiment, run in-process and with a Coordinator serving two workers,
// exports byte-identical JSON.
func TestRunDistributedMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed sweep is not -short sized")
	}
	spec := MustPreset("paper-geo3dc")
	spec.Scale = 0.01
	spec.Seed = 7
	spec.Horizon = HoursOf(4)
	spec.FineStepSec = 300
	exp := Experiment{
		Scenarios: []Spec{spec},
		Policies:  StandardPolicies(0.9),
		Seeds:     2,
	}
	ctx := context.Background()
	set, err := exp.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := set.JSON()
	if err != nil {
		t.Fatal(err)
	}

	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	wctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	wait := distWorkers(wctx, t, coord, 2)

	exp.Coordinator = coord
	dset, err := exp.Run(wctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dset.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed JSON differs from in-process JSON")
	}

	coord.Finish()
	wait()
}

// TestFrontierRunnerMatchesInProcess: the adaptive frontier scheduled
// through a dist coordinator resolves byte-identically to the in-process
// driver — waves, refinement decisions and all.
func TestFrontierRunnerMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed frontier is not -short sized")
	}
	spec := MustPreset("paper-geo3dc")
	spec.Scale = 0.01
	spec.Seed = 7
	spec.Horizon = HoursOf(4)
	spec.FineStepSec = 300

	baseline, err := NewRefPolicySpec("Pareto-search", PolicyRef{Kind: "paretosearch"})
	if err != nil {
		t.Fatal(err)
	}
	fr := Frontier{
		Scenarios:   []Spec{spec},
		Objectives:  []Objective{CostObjective(), MeanRespObjective()},
		PointBudget: 6,
		coarse:      3,
		waveSize:    2,
		Baselines:   []PolicySpec{baseline},
	}

	ctx := context.Background()
	fs, err := fr.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fs.JSON()
	if err != nil {
		t.Fatal(err)
	}

	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	wctx, cancel := context.WithTimeout(ctx, 5*time.Minute)
	defer cancel()
	wait := distWorkers(wctx, t, coord, 2)

	fr.Coordinator = coord
	dfs, err := fr.Run(wctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dfs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed frontier JSON differs from in-process frontier JSON:\n--- dist\n%.1500s\n--- local\n%.1500s", got, want)
	}

	coord.Finish()
	wait()
}

// TestFrontierRunnerRejectsUnportableSetups: objectives without row
// extractors fail up front, not mid-sweep.
func TestFrontierRunnerRejectsUnportableSetups(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if _, err := (Frontier{
		Objectives:  []Objective{CostObjective(), P95RespObjective()},
		Coordinator: coord,
	}).Run(context.Background()); err == nil {
		t.Fatal("distributed frontier accepted an objective without OfRow")
	}
}
