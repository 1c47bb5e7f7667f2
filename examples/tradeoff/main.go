// Tradeoff resolves the cost/response frontier the paper explores in
// Figures 5 and 6 — but instead of a hand-picked alpha grid it drives the
// adaptive Frontier API: a coarse sweep of the Eq. 5 weighting first, then
// refinement waves that bisect the alpha intervals spanning the largest
// hypervolume gaps, so the evaluation budget concentrates where the
// trade-off actually bends. Three baselines frame the front: Net-aware
// anchors the performance end, Ener-aware the energy end, and the
// Pareto-search metaheuristic competes with the controller point for
// point. Every refinement wave reuses the scenario's compiled workload —
// the whole frontier compiles it once per seed.
//
//	go run ./examples/tradeoff
package main

import (
	"context"
	"fmt"
	"log"

	"geovmp"
)

func main() {
	spec := geovmp.Spec{
		Name:        "tradeoff",
		Scale:       0.04,
		Seed:        11,
		Horizon:     geovmp.Days(2),
		FineStepSec: 60,
	}

	fs, err := geovmp.Frontier{
		Scenarios:   []geovmp.Spec{spec},
		Objectives:  []geovmp.Objective{geovmp.CostObjective(), geovmp.MeanRespObjective()},
		PointBudget: 11,
		Baselines: []geovmp.PolicySpec{
			geovmp.NewPolicySpec("Pareto-search", func(seed uint64) geovmp.Policy {
				return geovmp.ParetoSearch(seed)
			}),
			geovmp.NewPolicySpec("Net-aware", func(uint64) geovmp.Policy { return geovmp.NetAware() }),
			geovmp.NewPolicySpec("Ener-aware", func(uint64) geovmp.Policy { return geovmp.EnerAware() }),
		},
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	sf := fs.Scenarios[0]
	fmt.Print(geovmp.FrontierFigure(sf).Render())
	fmt.Println()
	if knee := sf.KneePoint(); knee != nil {
		fmt.Printf("knee of the front: %s (cost %.2f EUR, mean resp %.2f s)\n",
			knee.Name, knee.V[0], knee.V[1])
	}
	fmt.Printf("front resolved with %d evaluations in %d waves (hypervolume %.4g, spread %.3f)\n",
		sf.Evals, sf.Waves, sf.Hypervolume, sf.Spread)
	fmt.Println("\nhigher alpha -> tighter data locality -> better response;")
	fmt.Println("lower alpha  -> stronger peak separation in the plane (energy side).")
}
