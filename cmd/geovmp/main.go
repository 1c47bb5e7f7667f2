// Command geovmp runs a sweep of placement policies over one of the
// geo-distributed scenarios and prints a metrics summary per seed plus a
// multi-seed aggregate. Cells run in parallel; Ctrl-C cancels the sweep
// and reports whatever completed.
//
// Usage:
//
//	geovmp [-policy proposed|ener|pri|net|all] [-preset paper-geo3dc]
//	       [-scale 0.05] [-seed 42] [-seeds 1] [-par 0]
//	       [-hours N | -days N | -week] [-alpha 0.9] [-finestep 60]
//	       [-json results.json] [-progress]
//
// Examples:
//
//	geovmp -policy all -scale 0.05 -days 2
//	geovmp -preset geo5dc -seeds 3 -par 8 -progress
//	geovmp -policy proposed -alpha 0.5 -week -scale 0.1 -finestep 5
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"geovmp"
)

func main() {
	var (
		polName  = flag.String("policy", "all", "proposed, ener, pri, net or all")
		preset   = flag.String("preset", "paper-geo3dc", "scenario preset (see -presets)")
		list     = flag.Bool("presets", false, "list scenario presets and exit")
		scale    = flag.Float64("scale", 0.05, "Table I fleet scale (1.0 = paper)")
		seed     = flag.Uint64("seed", 42, "base experiment seed")
		seeds    = flag.Int("seeds", 1, "number of consecutive seeds to sweep")
		par      = flag.Int("par", 0, "max concurrent runs (0 = GOMAXPROCS)")
		hours    = flag.Int("hours", 0, "horizon in hours")
		days     = flag.Int("days", 2, "horizon in days (ignored when -hours or -week set)")
		week     = flag.Bool("week", false, "use the paper's one-week horizon")
		alpha    = flag.Float64("alpha", 0.9, "energy-performance weight for the proposed method")
		fineStep = flag.Float64("finestep", 60, "green controller step seconds (paper: 5)")
		vmsPer   = flag.Float64("vms", 0, "initial VMs per server (default 7)")
		jsonOut  = flag.String("json", "", "write the ResultSet as JSON to this path")
		progress = flag.Bool("progress", false, "print per-cell completion progress")
	)
	flag.Parse()

	if *list {
		for _, n := range geovmp.PresetNames() {
			fmt.Println(n)
		}
		return
	}

	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "error: -seeds %d: need at least one seed\n", *seeds)
		os.Exit(2)
	}
	horizon := geovmp.Days(*days)
	if *hours > 0 {
		horizon = geovmp.HoursOf(*hours)
	}
	if *week {
		horizon = geovmp.Week()
	}
	spec, err := geovmp.Preset(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	spec.Scale = *scale
	spec.Seed = *seed
	spec.Horizon = horizon
	spec.FineStepSec = *fineStep
	spec.VMsPerServer = *vmsPer

	var pols []geovmp.PolicySpec
	std := geovmp.StandardPolicies(*alpha)
	switch *polName {
	case "proposed":
		pols = std[:1]
	case "ener":
		pols = std[1:2]
	case "pri":
		pols = std[2:3]
	case "net":
		pols = std[3:4]
	case "all":
		pols = std
	default:
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *polName)
		os.Exit(2)
	}

	exp := geovmp.Experiment{
		Scenarios:   []geovmp.Spec{spec},
		Policies:    pols,
		Seeds:       *seeds,
		Parallelism: *par,
	}
	if *progress {
		exp.Progress = func(p geovmp.Progress) {
			fmt.Printf("  [%d/%d] %s / %s / seed %d\n",
				p.Done, p.Total, p.Cell.Scenario, p.Cell.Policy, p.Cell.Seed)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	set, err := exp.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		if set == nil {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "reporting completed cells only")
	}

	scName := set.Scenarios[0]
	for ki := range set.SeedOffsets {
		var results []*geovmp.Result
		for pi := range set.Policies {
			if c := set.At(0, pi, ki); c.Result != nil {
				results = append(results, c.Result)
			}
		}
		if len(results) == 0 {
			continue
		}
		if len(set.SeedOffsets) > 1 {
			fmt.Printf("seed %d:\n", *seed+set.SeedOffsets[ki])
		}
		fmt.Print(geovmp.Summarize(results))
	}
	if len(set.SeedOffsets) > 1 {
		fmt.Println()
		fmt.Print(set.Aggregate(scName).Render())
	}
	if *jsonOut != "" {
		if err := set.WriteJSON(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("\nResultSet written to %s\n", *jsonOut)
	}
	fmt.Printf("\n%s: %d policies x %d seed(s), %d slots, scale %.3g — %s\n",
		scName, len(set.Policies), len(set.SeedOffsets), horizon.Slots,
		*scale, time.Since(start).Round(time.Millisecond))
	if err != nil {
		os.Exit(1)
	}
}
