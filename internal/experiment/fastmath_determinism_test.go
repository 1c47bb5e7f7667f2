package experiment

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/timeutil"
)

// TestFastMathDeterministic extends the worker-budget guarantee to the
// quantized fast path: with FastMath on — frozen-peer sampled embedding,
// quantized correlation kernel — the same narrow grid
// must still produce byte-identical ResultSet JSON at Parallelism 1, 2 and
// GOMAXPROCS+6. Fast mode is approximate versus exact, but it is required
// to be exactly reproducible at any worker count; the CI race job runs
// this under -race.
func TestFastMathDeterministic(t *testing.T) {
	spec, err := config.Preset("geo5dc")
	if err != nil {
		t.Fatal(err)
	}
	spec.Scale = 0.02 // ~630 VMs: the sampled fast path with frozen peers
	spec.Seed = 17
	spec.Horizon = timeutil.Hours(3)
	spec.FineStepSec = 600
	spec.FastMath = true
	grid := func(parallelism int) Grid {
		return Grid{
			Scenarios: []config.Spec{spec},
			Policies: []PolicySpec{
				{Name: "Proposed", New: func(seed uint64) policy.Policy { return core.New(0.9, seed) }},
			},
			SeedOffsets: []uint64{0, 1},
			Parallelism: parallelism,
		}
	}
	base, err := Run(context.Background(), grid(1))
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, err := base.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, runtime.GOMAXPROCS(0) + 6} {
		set, err := Run(context.Background(), grid(p))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, set) {
			t.Fatalf("Parallelism=%d: fast-math ResultSet differs from serial run", p)
		}
		js, err := set.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(baseJSON, js) {
			t.Fatalf("Parallelism=%d: fast-math JSON export differs from serial run", p)
		}
	}
}
