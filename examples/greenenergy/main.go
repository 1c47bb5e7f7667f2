// Greenenergy examines the energy-source side of the system: how much of
// the fleet's demand each policy serves from photovoltaics, battery and
// grid, and what the battery arbitrage is worth. One experiment grid runs
// two scenarios — the paper's world and its battery-free preset — under
// all four policies, reproducing the paper's claim that the proposed
// capacity caps "reduce the DCs' dependency on grid energy".
//
//	go run ./examples/greenenergy
package main

import (
	"context"
	"fmt"
	"log"

	"geovmp"
)

func main() {
	withBattery := geovmp.Spec{
		Name:        "with-battery",
		Scale:       0.04,
		Seed:        3,
		Horizon:     geovmp.Days(3),
		FineStepSec: 60,
	}
	noBattery := withBattery
	noBattery.Name, noBattery.BatteryScale = "no-battery", geovmp.BatteryZero

	set, err := geovmp.Experiment{
		Scenarios: []geovmp.Spec{withBattery, noBattery},
		Policies:  geovmp.StandardPolicies(0.9),
	}.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	for si, scName := range set.Scenarios {
		fmt.Printf("three-day energy sourcing per policy (%s):\n\n", scName)
		fmt.Println("method      demand(kWh)  grid(kWh)  PV-used(kWh)  PV-lost(kWh)  battery(kWh)  grid share")
		fmt.Println("----------  -----------  ---------  ------------  ------------  ------------  ----------")
		for pi, polName := range set.Policies {
			r := set.At(si, pi, 0).Result
			demand := r.TotalEnergy.KWh()
			gridShare := 0.0
			if demand > 0 {
				gridShare = r.GridEnergy.KWh() / demand
			}
			fmt.Printf("%-10s  %11.1f  %9.1f  %12.1f  %12.1f  %12.1f  %9.1f%%\n",
				polName, demand, r.GridEnergy.KWh(), r.RenewableUsed.KWh(),
				r.RenewableLost.KWh(), r.BatteryOut.KWh(), gridShare*100)
		}
		fmt.Println()
	}

	prop := set.At(0, 0, 0).Result
	propNoBatt := set.At(1, 0, 0).Result
	fmt.Printf("the proposed caps steer load toward sunny and cheap sites:\n")
	fmt.Printf("  PV harvested: %.1f kWh (%.1f kWh of potential lost)\n",
		prop.RenewableUsed.KWh(), prop.RenewableLost.KWh())
	fmt.Printf("  battery supplied %.1f kWh during peak-tariff windows\n", prop.BatteryOut.KWh())
	fmt.Printf("  operational cost: %.2f EUR with batteries vs %.2f EUR without\n",
		float64(prop.OpCost), float64(propNoBatt.OpCost))
}
