package cluster

import (
	"testing"

	"geovmp/internal/embed"
)

func TestStickBiasKeepsBoundaryItemHome(t *testing.T) {
	// An item exactly between two centroids: without stick it ties toward
	// the lower index; with stick toward its current cluster it must stay.
	items := []Item{{ID: 0, Pos: embed.Point{X: 0}, Load: 1, Current: 1}}
	cfg := Config{
		K:        2,
		Caps:     []float64{10, 10},
		Init:     []embed.Point{{X: -4}, {X: 4}},
		MaxIters: 1,
		Stick:    0.7,
	}
	res := Run(items, cfg)
	if res.Assign[0] != 1 {
		t.Fatalf("boundary item left its current cluster: %d", res.Assign[0])
	}
}

func TestStickDoesNotOverrideClearPreference(t *testing.T) {
	// An item far inside cluster 0's territory moves there even against a
	// moderate stay bias toward cluster 1.
	items := []Item{{ID: 0, Pos: embed.Point{X: -4}, Load: 1, Current: 1}}
	cfg := Config{
		K:        2,
		Caps:     []float64{10, 10},
		Init:     []embed.Point{{X: -4}, {X: 4}},
		MaxIters: 1,
		Stick:    0.7,
	}
	res := Run(items, cfg)
	if res.Assign[0] != 0 {
		t.Fatalf("clear geometric preference overridden by stickiness: %d", res.Assign[0])
	}
}

func TestStickDisabledValues(t *testing.T) {
	// Stick 0 and 1 both mean "no bias": the boundary item ties toward the
	// lower index regardless of Current.
	for _, stick := range []float64{0, 1} {
		items := []Item{{ID: 0, Pos: embed.Point{X: 0}, Load: 1, Current: 1}}
		cfg := Config{
			K:        2,
			Caps:     []float64{10, 10},
			Init:     []embed.Point{{X: -4}, {X: 4}},
			MaxIters: 1,
			Stick:    stick,
		}
		res := Run(items, cfg)
		if res.Assign[0] != 0 {
			t.Fatalf("stick=%v: expected unbiased tie toward 0, got %d", stick, res.Assign[0])
		}
	}
}

func TestNewItemsUnaffectedByStick(t *testing.T) {
	// Current = -1 (new VM) never matches a cluster index, so stick has no
	// effect on it.
	items := []Item{{ID: 0, Pos: embed.Point{X: 3.9}, Load: 1, Current: -1}}
	cfg := Config{
		K:        2,
		Caps:     []float64{10, 10},
		Init:     []embed.Point{{X: -4}, {X: 4}},
		MaxIters: 1,
		Stick:    0.3,
	}
	res := Run(items, cfg)
	if res.Assign[0] != 1 {
		t.Fatalf("new item not assigned by pure distance: %d", res.Assign[0])
	}
}

func TestIterationConvergesOnStableInput(t *testing.T) {
	items := twoBlobs()
	a := Run(items, Config{K: 2, Caps: []float64{100, 100}, MaxIters: kmeansIters})
	// Feeding the converged centroids back must not change assignments.
	b := Run(items, Config{K: 2, Caps: []float64{100, 100}, Init: a.Centroids, MaxIters: kmeansIters})
	for id, c := range a.Assign {
		if b.Assign[id] != c {
			t.Fatalf("assignment of %d changed on re-run from converged centroids", id)
		}
	}
	if b.Iters > a.Iters {
		t.Fatalf("re-run took more iterations (%d > %d)", b.Iters, a.Iters)
	}
}
