// Dynamic placement: run the rolling-horizon epoch engine over a workload
// whose class mix and load shift during the day, and read the per-epoch
// breakdown — migrations executed, migration energy and downtime charged,
// cost and energy per epoch.
//
//	go run ./examples/dynamic
package main

import (
	"context"
	"fmt"
	"log"

	"geovmp"
)

func main() {
	// The five-site dynamic preset, shrunk to laptop size: the synthetic
	// class mix walks from interactive- to batch-heavy across four epochs
	// and arrivals wave with the afternoon peak. The preset's four epochs
	// make the engine re-optimize the placement at each regime boundary
	// (warm-started from the carried embedding); the migration budget caps
	// executed moves per epoch and prices each move's transfer energy and
	// downtime into the results.
	spec := geovmp.MustPreset("geo5dc-dynamic")
	spec.Scale = 0.02
	spec.Seed = 7
	spec.Horizon = geovmp.Days(1)
	spec.FineStepSec = 300
	spec.Migration = geovmp.MigrationBudget{MaxMovesPerEpoch: 150}

	set, err := geovmp.Experiment{
		Scenarios: []geovmp.Spec{spec},
		Policies:  geovmp.StandardPolicies(0.9)[:2], // Proposed + Ener-aware
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	for pi, name := range set.Policies {
		r := set.At(0, pi, 0).Result
		fmt.Printf("%s: %.2f EUR, %.4f GJ, worst resp %.2f s — %d migrations (%d rejected), %.3f kWh + %.1f s charged to moves\n",
			name, float64(r.OpCost), r.TotalEnergy.GJ(), r.RespSummary.Max(),
			r.Migrations, r.MigRejected, r.MigEnergy.KWh(), r.MigDowntimeSec)
		for _, es := range r.Epochs {
			fmt.Printf("  epoch %d [%02d:00-%02d:00): %6.2f EUR  %.4f GJ  %3d moves  %3d rejected  %6.1f GB moved\n",
				es.Epoch, es.StartSlot, es.EndSlot, float64(es.Cost), es.Energy.GJ(),
				es.Migrations, es.MigRejected, es.MigratedBytes.GB())
		}
	}

	// The same per-epoch rows travel in the ResultSet JSON export
	// (cells[].epochs), so downstream tooling sees them too.
	js, err := set.JSON()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nJSON export: %d bytes (per-epoch rows included)\n", len(js))
}
