package sim_test

import (
	"reflect"
	"testing"

	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
)

// budgetScenario builds the tiny test world over a *compiled* workload
// with an explicit fine-table budget — a raw workload would be compiled by
// the run itself at the default budget, so the compile is explicit here,
// exactly like the experiment engine's column compile. profileSamples -1
// compiles no profile table (the blind controller).
func budgetScenario(t *testing.T, seed uint64, budget int64, profileSamples int) *sim.Scenario {
	t.Helper()
	spec := config.Spec{
		Scale:             0.01,
		Seed:              seed,
		Horizon:           timeutil.Hours(8),
		FineStepSec:       300,
		ProfileSamples:    profileSamples,
		MaxFineTableBytes: budget,
	}
	sc, err := config.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := config.CompileWorkload(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if budget > 0 && c.FineChunkSlots() == 0 {
		t.Fatal("positive budget did not stream the fine table")
	}
	if profileSamples < 0 && c.Samples() > 0 {
		t.Fatal("a blind controller's compile holds a profile table")
	}
	sc.Workload = c
	return sc
}

// TestChunkedRunBitIdentical is the out-of-core acceptance property: a run
// whose compiled tables stream through bounded windows must produce a
// Result byte-identical to the unbounded resident run — same costs, same
// energy, same response samples, same migration trace — for every policy
// family at several budgets, down to one byte (one-slot windows), and for
// the blind controller, which compiles no profile table.
func TestChunkedRunBitIdentical(t *testing.T) {
	pols := func(seed uint64) []policy.Policy {
		return []policy.Policy{core.New(0.9, seed), policy.EnerAware{}, policy.NetAware{}}
	}
	fine, _ := budgetScenario(t, 31, 0, 0).Workload.(*trace.Compiled).TableBytes()
	cases := []struct {
		budget         int64
		profileSamples int
	}{{1, 0}, {fine / 3, 0}, {fine / 2, 0}, {1, -1}}
	for _, tc := range cases {
		for pi := range pols(31) {
			want, err := sim.Run(budgetScenario(t, 31, 0, tc.profileSamples), pols(31)[pi])
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(budgetScenario(t, 31, tc.budget, tc.profileSamples), pols(31)[pi])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("budget %d, profile samples %d, policy %s: streamed run diverged: cost %v vs %v, energy %v vs %v, migrations %d vs %d, worst resp %v vs %v",
					tc.budget, tc.profileSamples, want.Policy, got.OpCost, want.OpCost, got.TotalEnergy, want.TotalEnergy,
					got.Migrations, want.Migrations, got.RespSummary.Max(), want.RespSummary.Max())
			}
		}
	}
}
