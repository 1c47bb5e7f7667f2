// Command experiments regenerates every table and figure of the paper's
// evaluation section (Table I, Figs. 1-6) plus the ablations A1-A7 listed
// in the README, printing each as text and writing CSVs under -out. Every
// experiment is an Experiment-engine sweep: cells run in parallel and
// Ctrl-C cancels the remainder.
//
// Usage:
//
//	experiments [-exp all|table1|fig1..fig6|figs|alpha|noembed|qos|battery|forecast|epochs|frontier|failures]
//	            [-scale 0.05] [-seed 42] [-seeds 1] [-days 7] [-finestep 60]
//	            [-alpha 0.9] [-fastmath]
//	            [-par 0] [-out results] [-json results/cells.json]
//	            [-coordinator host:port] [-checkpoint sweep.ckpt.json]
//	            [-resume sweep.ckpt.json]
//	            [-tracedir replaydir | -ingest-vms vms.csv -ingest-cpu cpu.csv]
//	            [-finebudget bytes]
//	            [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out]
//
// The scenario flags (-scale, -seed, -days, -finestep, -fastmath and the
// workload flags -tracedir, -ingest-vms/-ingest-cpu, -finebudget) apply to
// every experiment's scenarios, including the preset-based epochs and
// failures sweeps.
//
// -coordinator runs the sweep distributed: instead of computing cells in
// this process, the grid is served over the worker lease protocol on the
// given address and any number of geovmp-worker processes (on this or other
// machines) evaluate the cells; the merged ResultSet is byte-identical to a
// local run. -checkpoint (coordinator mode) persists completed cells after
// every result; -resume preloads such a checkpoint — or any ResultSet JSON
// export — so already-completed cells are not recomputed, in both the
// single-process and coordinator paths. See README "Distributed sweeps".
//
// The profiling flags write pprof profiles covering the sweep — the fastest
// way to see where a configuration spends its time (`go tool pprof`) — and
// -trace writes a runtime/trace for `go tool trace`, the tool of choice for
// diagnosing shard imbalance in the intra-cell parallel passes.
//
// The paper's full configuration is -scale 1 -days 7 -finestep 5; the
// defaults trade fleet size for wall-clock time while preserving the
// comparison structure (see README "Deviations from the paper").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"

	"geovmp"
	"geovmp/internal/atomicfile"
	"geovmp/internal/report"
)

var (
	expName  = flag.String("exp", "all", "experiment: all, figs, table1, fig1..fig6, alpha, noembed, qos, battery, forecast, epochs, frontier, failures")
	scale    = flag.Float64("scale", 0.05, "Table I fleet scale (1.0 = paper)")
	seed     = flag.Uint64("seed", 42, "experiment seed")
	days     = flag.Int("days", 7, "horizon in days (paper: 7)")
	fineStep = flag.Float64("finestep", 60, "green controller step seconds (paper: 5)")
	alpha    = flag.Float64("alpha", 0.9, "proposed method's energy-performance weight")
	outDir   = flag.String("out", "results", "directory for CSV output")
	seeds    = flag.Int("seeds", 1, "number of consecutive seeds: the figures sweep's multi-seed aggregate, and the seeds each frontier point is averaged over")
	par      = flag.Int("par", 0, "max concurrent runs (0 = GOMAXPROCS)")
	jsonOut  = flag.String("json", "", "write the figures sweep's ResultSet as JSON to this path")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this path")
	memProf  = flag.String("memprofile", "", "write a heap profile at exit to this path")
	traceOut = flag.String("trace", "", "write a runtime/trace of the sweep to this path (inspect shard balance with `go tool trace`)")
	fastmath = flag.Bool("fastmath", false, "enable the approximate fast-numeric mode (CPU correlation over profiles quantized to fixed-point ticks, embedding peers frozen per run; see PERFORMANCE.md)")

	traceDir   = flag.String("tracedir", "", "drive scenarios from this replay trace directory (tracegen -replay format) instead of the synthetic workload")
	ingestVMs  = flag.String("ingest-vms", "", "drive scenarios from a raw cluster trace: VM lifetime CSV (requires -ingest-cpu)")
	ingestCPU  = flag.String("ingest-cpu", "", "per-interval CPU utilization CSV paired with -ingest-vms")
	fineBudget = flag.Int64("finebudget", 0, "resident bytes budget per compiled workload table; over-budget tables stream in chunks (0 = 256 MiB default; must not be negative)")

	coordAddr  = flag.String("coordinator", "", "serve the sweep to geovmp-worker processes on this address (e.g. :8341) instead of computing cells locally")
	ckptPath   = flag.String("checkpoint", "", "coordinator mode: persist completed cells to this file after every result (resume with -resume)")
	resumePath = flag.String("resume", "", "preload completed cells from this checkpoint or ResultSet JSON; matching cells are not recomputed")
)

// coord is non-nil in -coordinator mode; resumeCk in -resume mode. Both are
// set up in main before any experiment runs.
var (
	coord    *geovmp.Coordinator
	resumeCk *geovmp.Checkpoint
)

// startProfiles begins CPU profiling and execution tracing (when requested)
// and returns a function writing the requested profiles at exit.
func startProfiles() (stop func(), err error) {
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stop = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			if stop != nil {
				stop()
			}
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			if stop != nil {
				stop()
			}
			return nil, err
		}
		prev := stop
		stop = func() {
			trace.Stop()
			f.Close()
			if prev != nil {
				prev()
			}
		}
	}
	if *memProf != "" {
		prev := stop
		stop = func() {
			if prev != nil {
				prev()
			}
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}
	if stop == nil {
		stop = func() {}
	}
	return stop, nil
}

// applyFlags is the one flag-to-Spec mapping, shared by base and preset
// specs alike.
func applyFlags(s *geovmp.Spec) {
	s.Scale, s.Seed, s.Horizon, s.FineStepSec = *scale, *seed, geovmp.Days(*days), *fineStep
	s.FastMath = *fastmath
	s.ReplayDir = *traceDir
	s.TraceVMsFile, s.TraceCPUFile = *ingestVMs, *ingestCPU
	s.MaxFineTableBytes = *fineBudget
}

// flagged returns spec with the scenario flags applied.
func flagged(spec geovmp.Spec) geovmp.Spec {
	applyFlags(&spec)
	return spec
}

// presetSpec is the named preset under the scenario flags, renamed.
func presetSpec(preset, name string) geovmp.Spec {
	spec := geovmp.MustPreset(preset)
	spec.Name = name
	return flagged(spec)
}

// sweep runs one experiment grid under -par, bailing out on cancellation.
// With -resume, checkpointed cells are preloaded instead of recomputed;
// with -coordinator, cells are leased to connected workers instead of
// running here — both produce the byte-identical ResultSet a plain run
// would.
func sweep(ctx context.Context, exp geovmp.Experiment) (*geovmp.ResultSet, error) {
	exp.Parallelism, exp.Resume, exp.Coordinator = *par, resumeCk, coord
	return exp.Run(ctx)
}

// namedRef is a policy's display name and wire form. Policies built from
// refs travel to workers, and their local constructor resolves from the
// same registry, so both paths construct the same policy.
type namedRef struct {
	name string
	ref  geovmp.PolicyRef
}

func refPolicies(refs []namedRef) ([]geovmp.PolicySpec, error) {
	pols := make([]geovmp.PolicySpec, len(refs))
	for i, r := range refs {
		ps, err := geovmp.NewRefPolicySpec(r.name, r.ref)
		if err != nil {
			return nil, err
		}
		pols[i] = ps
	}
	return pols, nil
}

// step is one -exp value beyond the figures.
type step struct {
	exp string
	run func(context.Context) error
}

// steps is the -exp dispatch table beyond the figures, in -exp all order:
// the ablations, with the frontier run before A7.
func steps() []step {
	var out []step
	for _, a := range ablations() {
		if a.exp == "failures" {
			out = append(out, step{"frontier", runFrontier})
		}
		out = append(out, step{a.exp, a.run})
	}
	return out
}

// checkFlags refuses flag combinations no experiment can run.
func checkFlags() error {
	if *seeds < 1 {
		return fmt.Errorf("-seeds %d: need at least one seed", *seeds)
	}
	if *ckptPath != "" && *coordAddr == "" {
		return errors.New("-checkpoint needs -coordinator (single-process sweeps persist via -json at the end)")
	}
	return nil
}

func main() {
	flag.Parse()
	if err := checkFlags(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	stopProfiles, err := startProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	shutdown := func() {
		stopProfiles()
		if coord != nil {
			coord.Close()
		}
	}
	if *resumePath != "" {
		resumeCk, err = geovmp.LoadCheckpoint(*resumePath)
		if err != nil {
			shutdown()
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("resume: %d completed cell(s) preloaded from %s\n", resumeCk.Loaded, *resumePath)
	}
	if *coordAddr != "" {
		coord, err = geovmp.NewCoordinator(geovmp.CoordinatorConfig{
			Addr:           *coordAddr,
			CheckpointPath: *ckptPath,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			stopProfiles()
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("coordinator: serving cells at %s — connect workers with:\n  geovmp-worker -connect %s\n", coord.URL(), coord.URL())
	}
	start := time.Now()
	found := true
	switch *expName {
	case "all":
		err = runFigures(ctx, true)
		for _, s := range steps() {
			if err != nil {
				break
			}
			fmt.Println()
			err = s.run(ctx)
		}
	case "figs", "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6":
		err = runFigures(ctx, *expName == "figs")
	default:
		found = false
		for _, s := range steps() {
			if s.exp == *expName {
				found = true
				err = s.run(ctx)
			}
		}
	}
	shutdown()
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expName)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	fmt.Printf("\ncompleted in %s\n", time.Since(start).Round(time.Millisecond))
}

// runFigures executes the four-policy comparison (optionally across seeds)
// and emits the requested figures.
func runFigures(ctx context.Context, all bool) error {
	fmt.Printf("running 4 policies x %d seed(s), scale %.3g, %d days ...\n", *seeds, *scale, *days)
	spec := flagged(geovmp.Spec{Name: "paper-geo3dc"})
	set, err := sweep(ctx, geovmp.Experiment{
		Scenarios: []geovmp.Spec{spec},
		Policies:  geovmp.StandardPolicies(*alpha),
		Seeds:     *seeds,
	})
	if err != nil {
		return err
	}
	// Figures are rendered from the base seed's results. Cells preloaded
	// from a checkpoint or computed by remote workers carry only the
	// flattened row (no raw Result timeseries), so figure rendering is
	// skipped for them — the aggregate table and JSON export still cover
	// every cell.
	results := make([]*geovmp.Result, 0, len(set.Policies))
	live := true
	for pi := range set.Policies {
		r := set.At(0, pi, 0).Result
		if r == nil {
			live = false
		}
		results = append(results, r)
	}
	if live {
		sc, err := geovmp.NewScenario(spec)
		if err != nil {
			return err
		}
		figs := geovmp.Figures(sc, results)
		for _, f := range figs {
			if all || *expName == "figs" || *expName == f.ID {
				fmt.Println()
				fmt.Print(f.Render())
				if err := f.WriteCSV(*outDir); err != nil {
					return err
				}
			}
		}
		if err := report.SaveSVGs(*outDir, results); err != nil {
			return err
		}
		fmt.Printf("\nSVG figures written to %s/\n\n", *outDir)
		fmt.Print(geovmp.Summarize(results))
	} else {
		fmt.Println("\nfigures skipped: resumed/distributed cells carry flattened rows, not raw timeseries")
	}
	if *seeds > 1 || !live {
		agg := set.Aggregate(set.Scenarios[0])
		fmt.Println()
		fmt.Print(agg.Render())
		if err := agg.WriteCSV(*outDir); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := set.WriteJSON(*jsonOut); err != nil {
			return err
		}
		fmt.Printf("\nResultSet written to %s\n", *jsonOut)
	}
	return nil
}

// runFrontier resolves the cost / mean-response trade-off frontier of the
// base scenario with the adaptive driver: a coarse alpha grid first, then
// refinement waves bisecting the largest hypervolume gaps, with the
// metaheuristic search and two static heuristics framing the front. Every
// wave reuses the scenario x seed's compiled workload and environment. The
// frontier table goes to stdout and CSV; the SVG front and the FrontierSet
// JSON land under -out.
func runFrontier(ctx context.Context) error {
	fmt.Println("frontier: adaptive alpha sweep vs baselines (cost vs mean response)")
	baselines, err := refPolicies([]namedRef{
		{"Pareto-search", geovmp.PolicyRef{Kind: geovmp.PolicyKindParetoSearch}},
		{"Net-aware", geovmp.PolicyRef{Kind: geovmp.PolicyKindNetAware}},
		{"Ener-aware", geovmp.PolicyRef{Kind: geovmp.PolicyKindEnerAware}},
	})
	if err != nil {
		return err
	}
	fs, err := geovmp.Frontier{
		Scenarios:   []geovmp.Spec{flagged(geovmp.Spec{Name: "paper-geo3dc"})},
		Objectives:  []geovmp.Objective{geovmp.CostObjective(), geovmp.MeanRespObjective()},
		PointBudget: 13,
		Seeds:       *seeds,
		Parallelism: *par,
		Baselines:   baselines,
		Coordinator: coord,
	}.Run(ctx)
	if err != nil {
		return err
	}
	for _, sf := range fs.Scenarios {
		fig := geovmp.FrontierFigure(sf)
		fmt.Print(fig.Render())
		if knee := sf.KneePoint(); knee != nil {
			fmt.Printf("knee: %s at %v\n", knee.Name, knee.V)
		}
		// WriteCSV has created outDir by the time the SVG lands next to it.
		if err := fig.WriteCSV(*outDir); err != nil {
			return err
		}
		svgPath := filepath.Join(*outDir, "frontier-"+sf.Scenario+".svg")
		if err := atomicfile.Write(svgPath, []byte(geovmp.FrontierSVG(sf))); err != nil {
			return err
		}
		fmt.Printf("front SVG written to %s\n", svgPath)
	}
	return fs.WriteJSON(filepath.Join(*outDir, "frontier.json"))
}
