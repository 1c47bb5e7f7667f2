// Replaytrace shows the trace-replay workflow: export a workload to the CSV
// replay format, load it back (exactly how real data-center traces would be
// fed in), run the proposed controller on it through the experiment engine
// by setting the scenario's Workload field, and render the final embedding
// plane — one dot per VM, colored by the data center it ended up in — as an
// SVG.
//
//	go run ./examples/replaytrace
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"geovmp"
)

func main() {
	spec := geovmp.Spec{
		Name:        "synthetic",
		Scale:       0.03,
		Seed:        21,
		Horizon:     geovmp.Days(1),
		FineStepSec: 300,
	}

	// 1. Export the synthetic workload in the replay CSV format. Real
	// production traces go into the same three files: vms.csv,
	// profiles.csv, volumes.csv.
	sc, err := geovmp.NewScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "geovmp-replay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if err := geovmp.ExportWorkload(sc.Workload, dir, spec.Horizon, 12); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported workload to %s\n", dir)

	// 2. Load it back and declare a scenario that replays it.
	replayed, err := geovmp.LoadWorkload(dir)
	if err != nil {
		log.Fatal(err)
	}
	replaySpec := spec
	replaySpec.Name, replaySpec.Workload = "replayed", replayed

	// 3. Run the proposed controller on the replayed trace, keeping a
	// handle on the instance the engine builds so we can render its
	// embedding afterwards.
	var ctrl *geovmp.ProposedController
	set, err := geovmp.Experiment{
		Scenarios: []geovmp.Spec{replaySpec},
		Policies: []geovmp.PolicySpec{geovmp.NewPolicySpec("Proposed",
			func(seed uint64) geovmp.Policy {
				ctrl = geovmp.Proposed(0.9, seed)
				return ctrl
			})},
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	res := set.At(0, 0, 0).Result
	fmt.Printf("replayed run: cost=%.2f EUR, energy=%.4f GJ, %d migrations\n",
		float64(res.OpCost), res.TotalEnergy.GJ(), res.Migrations)

	// 4. Render the final embedding plane, colored by each VM's final DC.
	svg := geovmp.EmbeddingSVG(ctrl, "VM embedding, colored by final DC",
		func(id int) int { return res.FinalPlacement[id] },
		[]string{"DC1-Lisbon", "DC2-Zurich", "DC3-Helsinki"})
	out := "embedding.svg"
	if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d VMs) — open it in a browser\n", out, len(res.FinalPlacement))
}
