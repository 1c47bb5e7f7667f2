package sim_test

import (
	"reflect"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
)

// budgetScenario builds the tiny test world over a *compiled* workload
// with an explicit fine-table budget / chunk width — a raw workload would
// be compiled by the run itself at the default budget, so the compile is
// explicit here, exactly like the experiment engine's column compile.
func budgetScenario(t *testing.T, seed uint64, budget int64, chunkSlots int) *sim.Scenario {
	t.Helper()
	spec := config.Spec{
		Scale:             0.01,
		Seed:              seed,
		Horizon:           timeutil.Hours(8),
		FineStepSec:       300,
		MaxFineTableBytes: budget,
		FineChunkSlots:    chunkSlots,
	}
	sc, err := config.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := config.CompileWorkload(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if budget > 0 && !c.FineChunked() {
		t.Fatal("positive budget did not chunk the fine table")
	}
	sc.Workload = c
	return sc
}

// TestChunkedRunBitIdentical is the out-of-core acceptance property: a run
// whose compiled tables stream through bounded chunk windows must produce
// a Result byte-identical to the unbounded in-core run — same costs, same
// energy, same response samples, same migration trace — for every policy
// family and several chunk widths.
func TestChunkedRunBitIdentical(t *testing.T) {
	pols := func(seed uint64) []policy.Policy {
		return []policy.Policy{core.New(0.9, seed), policy.EnerAware{}, policy.NetAware{}}
	}
	for _, chunk := range []int{0, 1, 3} {
		for pi := range pols(31) {
			want, err := sim.Run(budgetScenario(t, 31, 0, 0), pols(31)[pi])
			if err != nil {
				t.Fatal(err)
			}
			// A 1-byte budget forces both the fine and the profile tables
			// out of core.
			got, err := sim.Run(budgetScenario(t, 31, 1, chunk), pols(31)[pi])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("chunk %d, policy %s: chunked run diverged: cost %v vs %v, energy %v vs %v, migrations %d vs %d, worst resp %v vs %v",
					chunk, want.Policy, got.OpCost, want.OpCost, got.TotalEnergy, want.TotalEnergy,
					got.Migrations, want.Migrations, got.WorstResp(), want.WorstResp())
			}
		}
	}
}
