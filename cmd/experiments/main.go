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
//	            [-par 0] [-out results] [-json results/cells.json]
//	            [-coordinator host:port] [-checkpoint sweep.ckpt.json]
//	            [-resume sweep.ckpt.json]
//	            [-tracedir replaydir | -ingest-vms vms.csv -ingest-cpu cpu.csv]
//	            [-finebudget bytes] [-chunkslots n]
//	            [-cpuprofile cpu.out] [-memprofile mem.out] [-trace trace.out]
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
// comparison structure (see EXPERIMENTS.md).
package main

import (
	"context"
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
	seeds    = flag.Int("seeds", 1, "number of seeds for the multi-seed aggregate (figs only)")
	par      = flag.Int("par", 0, "max concurrent runs (0 = GOMAXPROCS)")
	jsonOut  = flag.String("json", "", "write the figures sweep's ResultSet as JSON to this path")
	cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this path")
	memProf  = flag.String("memprofile", "", "write a heap profile at exit to this path")
	traceOut = flag.String("trace", "", "write a runtime/trace of the sweep to this path (inspect shard balance with `go tool trace`)")
	fastmath = flag.Bool("fastmath", false, "enable the approximate fast-numeric mode (quantized correlation kernel, embedding peers frozen per run; see PERFORMANCE.md)")

	traceDir   = flag.String("tracedir", "", "drive scenarios from this replay trace directory (tracegen -replay format) instead of the synthetic workload")
	ingestVMs  = flag.String("ingest-vms", "", "drive scenarios from a raw cluster trace: VM lifetime CSV (requires -ingest-cpu)")
	ingestCPU  = flag.String("ingest-cpu", "", "per-interval CPU utilization CSV paired with -ingest-vms")
	fineBudget = flag.Int64("finebudget", 0, "resident bytes budget per compiled workload table; over-budget tables stream in chunks (0 = 256 MiB default; must not be negative)")
	chunkSlots = flag.Int("chunkslots", 0, "pin the streaming-compile chunk width in slots (0 = derive from -finebudget)")

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

// baseOpts are the scenario options shared by every experiment.
func baseOpts() []geovmp.ScenarioOption {
	opts := []geovmp.ScenarioOption{
		geovmp.WithScale(*scale),
		geovmp.WithSeed(*seed),
		geovmp.WithHorizon(geovmp.Days(*days)),
		geovmp.WithFineStep(*fineStep),
	}
	if *fastmath {
		opts = append(opts, geovmp.WithFastMath())
	}
	if *traceDir != "" {
		opts = append(opts, geovmp.WithReplayDir(*traceDir))
	}
	if *ingestVMs != "" || *ingestCPU != "" {
		opts = append(opts, geovmp.WithTraceFile(*ingestVMs, *ingestCPU))
	}
	if *fineBudget != 0 {
		opts = append(opts, geovmp.WithFineTableBudget(*fineBudget))
	}
	if *chunkSlots != 0 {
		opts = append(opts, geovmp.WithChunkSlots(*chunkSlots))
	}
	return opts
}

func baseSpec(name string, extra ...geovmp.ScenarioOption) geovmp.Spec {
	return geovmp.NewSpec(name, append(baseOpts(), extra...)...)
}

// sweep runs one experiment grid, bailing out on cancellation. With
// -resume, checkpointed cells are preloaded instead of recomputed; with
// -coordinator, cells are leased to connected workers instead of running
// here — both produce the byte-identical ResultSet a plain run would.
func sweep(ctx context.Context, opts ...geovmp.ExperimentOption) (*geovmp.ResultSet, error) {
	opts = append(opts, geovmp.WithParallelism(*par))
	if resumeCk != nil {
		opts = append(opts, geovmp.WithResume(resumeCk))
	}
	exp := geovmp.NewExperiment(opts...)
	if coord != nil {
		return exp.RunDistributed(ctx, coord)
	}
	return exp.Run(ctx)
}

// refPolicy is NewRefPolicySpec for knobbed variants that must travel to
// workers; the local constructor resolves from the same registry, so the
// in-process path is unchanged.
func refPolicy(name string, ref geovmp.PolicyRef) (geovmp.PolicySpec, error) {
	return geovmp.NewRefPolicySpec(name, ref)
}

func main() {
	flag.Parse()
	if *seeds < 1 {
		*seeds = 1
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
	if *ckptPath != "" && *coordAddr == "" {
		shutdown()
		fmt.Fprintln(os.Stderr, "-checkpoint needs -coordinator (single-process sweeps persist via -json at the end)")
		os.Exit(2)
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
	switch *expName {
	case "all":
		err = runFigures(ctx, true)
		for _, ab := range []func(context.Context) error{runAlphaSweep, runNoEmbed, runQoSSweep, runBatterySweep, runForecast, runEpochSweep, runFrontier, runFailures} {
			if err != nil {
				break
			}
			fmt.Println()
			err = ab(ctx)
		}
	case "figs", "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6":
		err = runFigures(ctx, *expName == "figs" || *expName == "all")
	case "alpha":
		err = runAlphaSweep(ctx)
	case "noembed":
		err = runNoEmbed(ctx)
	case "qos":
		err = runQoSSweep(ctx)
	case "battery":
		err = runBatterySweep(ctx)
	case "forecast":
		err = runForecast(ctx)
	case "epochs":
		err = runEpochSweep(ctx)
	case "frontier":
		err = runFrontier(ctx)
	case "failures":
		err = runFailures(ctx)
	default:
		shutdown()
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expName)
		os.Exit(2)
	}
	shutdown()
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
	spec := baseSpec("paper-geo3dc")
	set, err := sweep(ctx,
		geovmp.WithScenarios(spec),
		geovmp.WithPolicies(geovmp.StandardPolicies(*alpha)...),
		geovmp.WithSeeds(*seeds),
	)
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

// runAlphaSweep is ablation A1: the Eq. 5 energy-performance weight, swept
// on the policy axis of one grid.
func runAlphaSweep(ctx context.Context) error {
	fmt.Println("ablation A1: alpha sweep (energy-performance weighting)")
	alphas := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	pols := make([]geovmp.PolicySpec, len(alphas))
	for i, a := range alphas {
		ps, err := refPolicy(fmt.Sprintf("alpha=%.1f", a),
			geovmp.PolicyRef{Kind: geovmp.PolicyKindProposed, Alpha: a})
		if err != nil {
			return err
		}
		pols[i] = ps
	}
	set, err := sweep(ctx, geovmp.WithScenarios(baseSpec("paper-geo3dc")), geovmp.WithPolicies(pols...))
	if err != nil {
		return err
	}
	fig := &report.Figure{
		ID:      "ablation-alpha",
		Title:   "Alpha sweep: Eq. 5 energy/performance weighting",
		Headers: []string{"alpha", "cost (EUR)", "energy (GJ)", "worst resp (s)", "mean resp (s)", "cross-DC (GB)"},
	}
	for i, a := range alphas {
		row := set.At(0, i, 0).Export()
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprintf("%.1f", a),
			fmt.Sprintf("%.2f", row.CostEUR),
			fmt.Sprintf("%.4f", row.EnergyGJ),
			fmt.Sprintf("%.2f", row.WorstRespS),
			fmt.Sprintf("%.2f", row.MeanRespS),
			fmt.Sprintf("%.1f", row.CrossGB),
		})
	}
	fmt.Print(fig.Render())
	return fig.WriteCSV(*outDir)
}

// runNoEmbed is ablation A2: clustering without the force-directed plane,
// swept as two policy variants of one grid.
func runNoEmbed(ctx context.Context) error {
	fmt.Println("ablation A2: embedding on/off")
	withEmb, err := refPolicy("with embedding",
		geovmp.PolicyRef{Kind: geovmp.PolicyKindProposed, Alpha: *alpha})
	if err != nil {
		return err
	}
	noEmb, err := refPolicy("no embedding",
		geovmp.PolicyRef{Kind: geovmp.PolicyKindProposed, Alpha: *alpha, NoEmbedding: true})
	if err != nil {
		return err
	}
	set, err := sweep(ctx,
		geovmp.WithScenarios(baseSpec("paper-geo3dc")),
		geovmp.WithPolicies(withEmb, noEmb),
	)
	if err != nil {
		return err
	}
	fig := &report.Figure{
		ID:      "ablation-noembed",
		Title:   "Force-directed embedding on/off",
		Headers: []string{"variant", "cost (EUR)", "energy (GJ)", "worst resp (s)", "mean resp (s)", "cross-DC (GB)"},
	}
	for pi, name := range set.Policies {
		row := set.At(0, pi, 0).Export()
		fig.Rows = append(fig.Rows, []string{
			name,
			fmt.Sprintf("%.2f", row.CostEUR),
			fmt.Sprintf("%.4f", row.EnergyGJ),
			fmt.Sprintf("%.2f", row.WorstRespS),
			fmt.Sprintf("%.2f", row.MeanRespS),
			fmt.Sprintf("%.1f", row.CrossGB),
		})
	}
	fmt.Print(fig.Render())
	return fig.WriteCSV(*outDir)
}

// runQoSSweep is ablation A3: the migration latency constraint, swept on
// the scenario axis.
func runQoSSweep(ctx context.Context) error {
	fmt.Println("ablation A3: migration QoS constraint sweep")
	qos := []float64{0.90, 0.95, 0.98, 0.995, 0.999}
	specs := make([]geovmp.Spec, len(qos))
	for i, q := range qos {
		specs[i] = baseSpec(fmt.Sprintf("qos=%.3f", q), geovmp.WithQoS(q))
	}
	set, err := sweep(ctx,
		geovmp.WithScenarios(specs...),
		geovmp.WithPolicies(geovmp.StandardPolicies(*alpha)[:1]...),
	)
	if err != nil {
		return err
	}
	fig := &report.Figure{
		ID:      "ablation-qos",
		Title:   "Migration QoS sweep (constraint = (1-QoS) x slot)",
		Headers: []string{"QoS", "cost (EUR)", "worst resp (s)", "migrations", "rejected"},
	}
	for si, q := range qos {
		row := set.At(si, 0, 0).Export()
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprintf("%.3f", q),
			fmt.Sprintf("%.2f", row.CostEUR),
			fmt.Sprintf("%.2f", row.WorstRespS),
			fmt.Sprintf("%d", row.Migrations),
			fmt.Sprintf("%d", row.MigRejected),
		})
	}
	fmt.Print(fig.Render())
	return fig.WriteCSV(*outDir)
}

// runBatterySweep is ablation A4: battery bank sizing, swept on the
// scenario axis.
func runBatterySweep(ctx context.Context) error {
	fmt.Println("ablation A4: battery size scaling")
	sizes := []float64{geovmp.BatteryZero, 0.5, 1, 2}
	labels := []string{"~0", "0.5", "1.0", "2.0"}
	specs := make([]geovmp.Spec, len(sizes))
	for i, b := range sizes {
		specs[i] = baseSpec("battery-x"+labels[i], geovmp.WithBatteryScale(b))
	}
	set, err := sweep(ctx,
		geovmp.WithScenarios(specs...),
		geovmp.WithPolicies(geovmp.StandardPolicies(*alpha)[:1]...),
	)
	if err != nil {
		return err
	}
	fig := &report.Figure{
		ID:      "ablation-battery",
		Title:   "Battery capacity scaling x{~0, 0.5, 1, 2}",
		Headers: []string{"battery scale", "cost (EUR)", "grid (kWh)", "PV used (kWh)", "PV lost (kWh)"},
	}
	for si := range sizes {
		row := set.At(si, 0, 0).Export()
		fig.Rows = append(fig.Rows, []string{
			labels[si],
			fmt.Sprintf("%.2f", row.CostEUR),
			fmt.Sprintf("%.1f", row.GridKWh),
			fmt.Sprintf("%.1f", row.RenewableUsedKWh),
			fmt.Sprintf("%.1f", row.RenewableLostKWh),
		})
	}
	fmt.Print(fig.Render())
	return fig.WriteCSV(*outDir)
}

// runEpochSweep is the rolling-horizon ablation: the geo5dc-dynamic
// workload (shifting class mix, waving arrivals) under 1, 2, 4 and 8
// re-optimization epochs, swept on the scenario axis. Epochs=1 is the
// static placement going stale against the drifting regime; more epochs
// buy re-convergence at the price of migration energy and downtime, both
// of which the engine charges into the metrics shown.
func runEpochSweep(ctx context.Context) error {
	fmt.Println("ablation A6: rolling-horizon epoch count on the dynamic workload")
	counts := []int{1, 2, 4, 8}
	specs := make([]geovmp.Spec, len(counts))
	for i, n := range counts {
		spec := geovmp.MustPreset("geo5dc-dynamic")
		spec.Name = fmt.Sprintf("epochs=%d", n)
		spec.Scale = *scale
		spec.Seed = *seed
		spec.Horizon = geovmp.Days(*days)
		spec.FineStepSec = *fineStep
		spec.FastMath = *fastmath
		spec.Epochs = n
		// Explicit default charging so the epochs=1 row runs the engine too
		// (single epoch, no boundary re-optimization) and every row pays
		// for its moves — the comparison isolates the epoch count.
		spec.Migration = geovmp.MigrationBudget{
			EnergyPerGB: geovmp.DefaultMigEnergyPerGB,
			DowntimeSec: geovmp.DefaultMigDowntimeSec,
		}
		specs[i] = spec
	}
	set, err := sweep(ctx,
		geovmp.WithScenarios(specs...),
		geovmp.WithPolicies(geovmp.StandardPolicies(*alpha)[:1]...),
	)
	if err != nil {
		return err
	}
	fig := &report.Figure{
		ID:      "ablation-epochs",
		Title:   "Rolling-horizon epochs on geo5dc-dynamic",
		Headers: []string{"epochs", "cost (EUR)", "energy (GJ)", "worst resp (s)", "migrations", "rejected", "mig energy (kWh)", "downtime (s)"},
	}
	for si := range counts {
		row := set.At(si, 0, 0).Export()
		fig.Rows = append(fig.Rows, []string{
			fmt.Sprintf("%d", counts[si]),
			fmt.Sprintf("%.2f", row.CostEUR),
			fmt.Sprintf("%.4f", row.EnergyGJ),
			fmt.Sprintf("%.2f", row.WorstRespS),
			fmt.Sprintf("%d", row.Migrations),
			fmt.Sprintf("%d", row.MigRejected),
			fmt.Sprintf("%.3f", row.MigEnergyKWh),
			fmt.Sprintf("%.1f", row.MigDowntimeS),
		})
	}
	fmt.Print(fig.Render())
	return fig.WriteCSV(*outDir)
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
	baselines := make([]geovmp.PolicySpec, 0, 3)
	for _, b := range []struct {
		name string
		ref  geovmp.PolicyRef
	}{
		{"Pareto-search", geovmp.PolicyRef{Kind: geovmp.PolicyKindParetoSearch}},
		{"Net-aware", geovmp.PolicyRef{Kind: geovmp.PolicyKindNetAware}},
		{"Ener-aware", geovmp.PolicyRef{Kind: geovmp.PolicyKindEnerAware}},
	} {
		ps, err := refPolicy(b.name, b.ref)
		if err != nil {
			return err
		}
		baselines = append(baselines, ps)
	}
	opts := []geovmp.FrontierOption{
		geovmp.FrontierScenarios(baseSpec("paper-geo3dc")),
		geovmp.FrontierObjectives(geovmp.CostObjective(), geovmp.MeanRespObjective()),
		geovmp.FrontierPointBudget(13),
		geovmp.FrontierCoarseGrid(5),
		geovmp.FrontierSeeds(*seeds),
		geovmp.FrontierParallelism(*par),
		geovmp.FrontierBaselines(baselines...),
	}
	if coord != nil {
		opts = append(opts, geovmp.FrontierRunner(coord))
	}
	fs, err := geovmp.NewFrontier(opts...).Run(ctx)
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
		if err := os.WriteFile(svgPath, []byte(geovmp.FrontierSVG(sf)), 0o644); err != nil {
			return err
		}
		fmt.Printf("front SVG written to %s\n", svgPath)
	}
	return fs.WriteJSON(filepath.Join(*outDir, "frontier.json"))
}

// runFailures is ablation A7: durability schemes under the pinned
// geo5dc-faulty outage schedule (a full-DC blackout, correlated server
// failures across the surviving sites, a degraded backbone link and a PV
// dropout, plus the stochastic background rates). The three rows share the
// exact same world and incident sequence; only the storage layer changes —
// no durable volumes, 2x replication, and RS(2,2) erasure coding at the
// same 2.0x capacity overhead — so the loss-probability and repair-traffic
// columns isolate what the coding scheme buys.
func runFailures(ctx context.Context) error {
	fmt.Println("ablation A7: durability schemes under the reference outage schedule")
	schemes := []struct {
		name string
		st   geovmp.StorageConfig
	}{
		{"none", geovmp.StorageConfig{}},
		{"replicated x2", geovmp.StorageConfig{Scheme: geovmp.StorageReplicated, Replicas: 2}},
		{"erasure RS(2,2)", geovmp.StorageConfig{Scheme: geovmp.StorageErasure, K: 2, M: 2}},
	}
	specs := make([]geovmp.Spec, len(schemes))
	for i, s := range schemes {
		spec := geovmp.MustPreset("geo5dc-faulty")
		spec.Name = "faults-" + s.name
		spec.Scale = *scale
		spec.Seed = *seed
		spec.Horizon = geovmp.Days(*days)
		spec.FineStepSec = *fineStep
		spec.FastMath = *fastmath
		spec.Storage = s.st
		specs[i] = spec
	}
	set, err := sweep(ctx,
		geovmp.WithScenarios(specs...),
		geovmp.WithPolicies(geovmp.StandardPolicies(*alpha)[:1]...),
	)
	if err != nil {
		return err
	}
	fig := &report.Figure{
		ID:      "ablation-failures",
		Title:   "Durability under the geo5dc-faulty outage schedule",
		Headers: []string{"storage", "data-loss prob", "repair (GB)", "evacuations", "stranded slots", "cost (EUR)", "worst resp (s)"},
	}
	for si, s := range schemes {
		row := set.At(si, 0, 0).Export()
		fig.Rows = append(fig.Rows, []string{
			s.name,
			fmt.Sprintf("%.4f", row.DataLossProb),
			fmt.Sprintf("%.1f", row.RepairGB),
			fmt.Sprintf("%d", row.Evacuations),
			fmt.Sprintf("%d", row.StrandedVMSlots),
			fmt.Sprintf("%.2f", row.CostEUR),
			fmt.Sprintf("%.2f", row.WorstRespS),
		})
	}
	fmt.Print(fig.Render())
	return fig.WriteCSV(*outDir)
}

// runForecast is ablation A5: renewable forecaster quality, swept on the
// scenario axis.
func runForecast(ctx context.Context) error {
	fmt.Println("ablation A5: renewable forecast quality")
	kinds := []struct {
		kind geovmp.ForecastKind
		name string
	}{
		{geovmp.ForecastOracle, "oracle"},
		{geovmp.ForecastWCMA, "wcma"},
		{geovmp.ForecastEWMA, "ewma"},
		{geovmp.ForecastLastValue, "last-value"},
	}
	specs := make([]geovmp.Spec, len(kinds))
	for i, k := range kinds {
		specs[i] = baseSpec("forecast-"+k.name, geovmp.WithForecast(k.kind))
	}
	set, err := sweep(ctx,
		geovmp.WithScenarios(specs...),
		geovmp.WithPolicies(geovmp.StandardPolicies(*alpha)[:1]...),
	)
	if err != nil {
		return err
	}
	fig := &report.Figure{
		ID:      "ablation-forecast",
		Title:   "Forecaster quality: oracle vs WCMA vs EWMA vs last-value",
		Headers: []string{"forecaster", "cost (EUR)", "grid (kWh)", "PV used (kWh)"},
	}
	for si, k := range kinds {
		row := set.At(si, 0, 0).Export()
		fig.Rows = append(fig.Rows, []string{
			k.name,
			fmt.Sprintf("%.2f", row.CostEUR),
			fmt.Sprintf("%.1f", row.GridKWh),
			fmt.Sprintf("%.1f", row.RenewableUsedKWh),
		})
	}
	fmt.Print(fig.Render())
	return fig.WriteCSV(*outDir)
}
