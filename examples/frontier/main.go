// Frontier shows knee-point selection on the rolling-horizon geo5dc-dynamic
// preset: when no stakeholder hands you an alpha, resolve the trade-off
// frontier adaptively and deploy the knee — the compromise configuration
// where giving up response time stops buying meaningful cost. The run
// explores three objectives at once (cost, energy, p95 response), writes
// the FrontierSet JSON for downstream tooling, and renders the front as an
// SVG.
//
//	go run ./examples/frontier
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"geovmp"
)

func main() {
	spec := geovmp.MustPreset("geo5dc-dynamic")
	spec.Scale = 0.02
	spec.Seed = 11
	spec.Horizon = geovmp.Days(1)
	spec.FineStepSec = 300

	fs, err := geovmp.Frontier{
		Scenarios: []geovmp.Spec{spec},
		Objectives: []geovmp.Objective{
			geovmp.CostObjective(),
			geovmp.EnergyObjective(),
			geovmp.P95RespObjective(),
		},
		PointBudget: 9,
		Seeds:       2,
		Baselines: []geovmp.PolicySpec{
			geovmp.NewPolicySpec("Pareto-search", func(seed uint64) geovmp.Policy {
				return geovmp.ParetoSearch(seed)
			}),
		},
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	sf := fs.Scenarios[0]
	fmt.Print(geovmp.FrontierFigure(sf).Render())
	fmt.Println()

	knee := sf.KneePoint()
	if knee == nil {
		log.Fatal("empty frontier")
	}
	fmt.Printf("deploy the knee: %s\n", knee.Name)
	for i, obj := range sf.Objectives {
		fmt.Printf("  %-12s %.4f\n", obj, knee.V[i])
	}
	fmt.Printf("(%d evaluations in %d waves; %d points on the front)\n",
		sf.Evals, sf.Waves, len(sf.Front))

	if err := fs.WriteJSON("frontier.json"); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("frontier.svg", []byte(geovmp.FrontierSVG(sf)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote frontier.json and frontier.svg")
}
