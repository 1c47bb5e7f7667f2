// Quickstart: compare the paper's proposed multi-objective VM placement
// against one baseline on a laptop-sized replica of the DATE'16 scenario,
// using the experiment engine.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"geovmp"
)

func main() {
	// A 3% replica of the paper's Table I fleet (45/30/15 servers in
	// Lisbon, Zurich and Helsinki) over one simulated day. Everything is
	// deterministic in the seed.
	spec := geovmp.Spec{
		Name:        "quickstart",
		Scale:       0.03,
		Seed:        7,
		Horizon:     geovmp.Days(1),
		FineStepSec: 60,
	}

	// The engine evaluates each policy on an identical fresh replica of
	// the scenario — same VM traces, same network error draws, same
	// initial battery charge — with the cells running in parallel.
	set, err := geovmp.Experiment{
		Scenarios: []geovmp.Spec{spec},
		Policies:  geovmp.StandardPolicies(0.9)[:2], // Proposed + Ener-aware
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	prop := set.At(0, 0, 0).Result
	ener := set.At(0, 1, 0).Result
	fmt.Println("one-day comparison, 3% of the paper's fleet:")
	fmt.Println()
	fmt.Print(geovmp.Summarize([]*geovmp.Result{prop, ener}))

	fmt.Printf("\nProposed saves %.1f%% operational cost vs Ener-aware (%.2f vs %.2f EUR)\n",
		(1-float64(prop.OpCost)/float64(ener.OpCost))*100,
		float64(prop.OpCost), float64(ener.OpCost))
	fmt.Printf("worst-case response: %.2f s vs %.2f s\n",
		prop.RespSummary.Max(), ener.RespSummary.Max())
}
