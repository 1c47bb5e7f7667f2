// Paperweek reproduces the paper's full evaluation: all four placement
// methods over a one-week horizon, regenerating Table I and Figures 1-6.
// The four runs execute concurrently on the experiment engine.
//
//	go run ./examples/paperweek            # 5% fleet, fast
//	go run ./examples/paperweek -scale 1   # the paper's 3000-server fleet
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"geovmp"
)

func main() {
	scale := flag.Float64("scale", 0.05, "fleet scale relative to Table I")
	seed := flag.Uint64("seed", 42, "experiment seed")
	fineStep := flag.Float64("finestep", 60, "green controller step (paper: 5s)")
	flag.Parse()

	spec := geovmp.Spec{
		Name:        "paper-week",
		Scale:       *scale,
		Seed:        *seed,
		Horizon:     geovmp.Week(),
		FineStepSec: *fineStep,
	}

	fmt.Printf("simulating one week, 4 policies in parallel, scale %.3g ...\n", *scale)
	start := time.Now()
	set, err := geovmp.Experiment{
		Scenarios: []geovmp.Spec{spec},
		Policies:  geovmp.StandardPolicies(0.9),
		Progress: func(p geovmp.Progress) {
			fmt.Printf("  [%d/%d] %s done\n", p.Done, p.Total, p.Cell.Policy)
		},
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done in %s\n\n", time.Since(start).Round(time.Second))

	results := make([]*geovmp.Result, 0, len(set.Policies))
	for pi := range set.Policies {
		results = append(results, set.At(0, pi, 0).Result)
	}

	// Regenerate the paper's figures from the results.
	sc, err := geovmp.NewScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	for _, fig := range geovmp.Figures(sc, results) {
		// Fig. 2's full hourly table is long; print only its chart summary.
		if fig.ID == "fig2" {
			fmt.Printf("== FIG2: %s ==\n%s\n", fig.Title, fig.Chart)
			continue
		}
		fmt.Println(fig.Render())
	}
	fmt.Print(geovmp.Summarize(results))
}
