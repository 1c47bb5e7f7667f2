// Benchmarks regenerating each of the paper's tables and figures plus the
// README's ablations A1-A7, on a reduced but structurally identical
// scenario (cmd/experiments runs them at full scale; PERFORMANCE.md holds
// the measured numbers). Every benchmark reports the figure's headline quantities through
// b.ReportMetric so `go test -bench=.` doubles as a regression harness for
// the reproduction's *shape*: who wins, and by roughly how much.
package geovmp

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"geovmp/internal/core"
	"geovmp/internal/experiment"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
)

// proposedCapture is a Proposed-only policy list whose factory also hands
// every constructed controller to the caller, so benchmarks can read
// per-controller accumulators (embedding wall time, cache stats) after a
// sweep. The append is mutex-guarded: cells construct policies
// concurrently.
func proposedCapture(alpha float64, mu *sync.Mutex, out *[]*core.Controller) []PolicySpec {
	return []PolicySpec{NewPolicySpec("Proposed", func(seed uint64) Policy {
		c := Proposed(alpha, seed)
		mu.Lock()
		*out = append(*out, c)
		mu.Unlock()
		return c
	})}
}

// benchSpec is the shared reduced scenario: 2% of Table I (30/20/10
// servers, ~420 VMs), one day, 5-minute green-controller steps.
func benchSpec() Spec {
	return Spec{
		Scale:       0.02,
		Seed:        42,
		Horizon:     Days(1),
		FineStepSec: 300,
	}
}

// compareAll runs the four policies of the paper's evaluation once.
func compareAll(b *testing.B) []*Result {
	b.Helper()
	return runPolicies(b, benchSpec(), AllPolicies(0.9, 42)...)
}

func byName(results []*Result, name string) *Result {
	for _, r := range results {
		if r.Policy == name {
			return r
		}
	}
	return nil
}

// BenchmarkTable1Setup regenerates Table I: scenario construction including
// the fleet, energy sources and workload.
func BenchmarkTable1Setup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc, err := NewScenario(benchSpec())
		if err != nil {
			b.Fatal(err)
		}
		if len(sc.Fleet) != 3 {
			b.Fatal("fleet size wrong")
		}
	}
}

// BenchmarkFig1OperationalCost regenerates Figure 1: normalized operational
// cost per method. Reported metrics are the proposed method's relative
// savings versus each baseline (paper: up to 55/25/35% vs Ener/Pri/Net).
func BenchmarkFig1OperationalCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := compareAll(b)
		prop := byName(results, "Proposed")
		for _, base := range []string{"Ener-aware", "Pri-aware", "Net-aware"} {
			r := byName(results, base)
			saving := (float64(r.OpCost) - float64(prop.OpCost)) / float64(r.OpCost)
			b.ReportMetric(saving*100, "pct-saved-vs-"+base)
		}
	}
}

// BenchmarkFig2EnergyConsumption regenerates Figure 2: weekly (here:
// horizon) energy consumed by the DCs per method, in GJ.
func BenchmarkFig2EnergyConsumption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := compareAll(b)
		for _, r := range results {
			b.ReportMetric(r.TotalEnergy.GJ(), "GJ-"+r.Policy)
		}
	}
}

// BenchmarkFig3ResponseTime regenerates Figure 3: the response-time
// distribution. Reported metrics are each method's worst case normalized by
// the worst across methods (the paper's SLA comparison).
func BenchmarkFig3ResponseTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := compareAll(b)
		var worst float64
		for _, r := range results {
			if w := r.RespSummary.Max(); w > worst {
				worst = w
			}
		}
		for _, r := range results {
			b.ReportMetric(r.RespSummary.Max()/worst, "norm-worst-"+r.Policy)
		}
	}
}

// BenchmarkFig4Totals regenerates Figure 4: the proposed method's combined
// cost / energy / performance improvements.
func BenchmarkFig4Totals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := compareAll(b)
		prop := byName(results, "Proposed")
		var worstCost, worstEnergy, worstResp float64
		for _, r := range results {
			if c := float64(r.OpCost); c > worstCost {
				worstCost = c
			}
			if e := r.TotalEnergy.GJ(); e > worstEnergy {
				worstEnergy = e
			}
			if w := r.RespSummary.Max(); w > worstResp {
				worstResp = w
			}
		}
		b.ReportMetric((1-float64(prop.OpCost)/worstCost)*100, "pct-cost-improvement")
		b.ReportMetric((1-prop.TotalEnergy.GJ()/worstEnergy)*100, "pct-energy-improvement")
		b.ReportMetric((1-prop.RespSummary.Max()/worstResp)*100, "pct-perf-improvement")
	}
}

// BenchmarkFig5CostPerformance regenerates Figure 5: the cost-performance
// trade-off versus the price-aware and network-aware baselines.
func BenchmarkFig5CostPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := compareAll(b)
		prop := byName(results, "Proposed")
		pri := byName(results, "Pri-aware")
		net := byName(results, "Net-aware")
		b.ReportMetric((1-float64(prop.OpCost)/float64(pri.OpCost))*100, "pct-cost-vs-pri")
		b.ReportMetric((1-prop.RespSummary.Max()/pri.RespSummary.Max())*100, "pct-perf-vs-pri")
		b.ReportMetric((1-float64(prop.OpCost)/float64(net.OpCost))*100, "pct-cost-vs-net")
	}
}

// BenchmarkFig6EnergyPerformance regenerates Figure 6: the
// energy-performance trade-off versus the energy-aware and network-aware
// baselines.
func BenchmarkFig6EnergyPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := compareAll(b)
		prop := byName(results, "Proposed")
		ener := byName(results, "Ener-aware")
		net := byName(results, "Net-aware")
		b.ReportMetric((1-prop.TotalEnergy.GJ()/ener.TotalEnergy.GJ())*100, "pct-energy-vs-ener")
		b.ReportMetric((1-prop.RespSummary.Max()/ener.RespSummary.Max())*100, "pct-perf-vs-ener")
		b.ReportMetric((1-prop.TotalEnergy.GJ()/net.TotalEnergy.GJ())*100, "pct-energy-vs-net")
	}
}

// BenchmarkAblationAlphaSweep is ablation A1: the Eq. 5 weighting between
// data locality and peak separation. Reported: worst response at the
// extremes.
func BenchmarkAblationAlphaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, alpha := range []float64{0.1, 0.9} {
			res := runPolicies(b, benchSpec(), Proposed(alpha, 42))
			b.ReportMetric(res[0].RespSummary.Max(), "worst-resp-alpha-"+fmtAlpha(alpha))
		}
	}
}

func fmtAlpha(a float64) string {
	if a < 0.5 {
		return "low"
	}
	return "high"
}

// BenchmarkAblationNoEmbedding is ablation A2: k-means without the
// force-directed plane. Reported: cross-DC traffic ratio (embedding should
// reduce it).
func BenchmarkAblationNoEmbedding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := runPolicies(b, benchSpec(), Proposed(0.9, 42))
		noCtl := Proposed(0.9, 42)
		noCtl.NoEmbedding = true
		without := runPolicies(b, benchSpec(), noCtl)
		b.ReportMetric(with[0].CrossBytes.GB(), "crossGB-with-embedding")
		b.ReportMetric(without[0].CrossBytes.GB(), "crossGB-no-embedding")
	}
}

// BenchmarkAblationQoSSweep is ablation A3: the migration latency
// constraint. Reported: executed migrations at loose vs tight QoS.
func BenchmarkAblationQoSSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, q := range []float64{0.90, 0.999} {
			s := benchSpec()
			s.QoS = q
			res := runPolicies(b, s, Proposed(0.9, 42))
			name := "migrations-qos-loose"
			if q > 0.99 {
				name = "migrations-qos-tight"
			}
			b.ReportMetric(float64(res[0].Migrations), name)
		}
	}
}

// BenchmarkAblationBatterySweep is ablation A4: battery sizing. Reported:
// grid energy with no battery vs double battery.
func BenchmarkAblationBatterySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, scale := range []float64{1e-6, 2} {
			s := benchSpec()
			s.BatteryScale = scale
			res := runPolicies(b, s, Proposed(0.9, 42))
			name := "gridKWh-battery-none"
			if scale > 1 {
				name = "gridKWh-battery-double"
			}
			b.ReportMetric(res[0].GridEnergy.KWh(), name)
		}
	}
}

// BenchmarkAblationForecast is ablation A5: forecaster quality. Reported:
// operational cost under oracle vs last-value forecasts.
func BenchmarkAblationForecast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, k := range []ForecastKind{ForecastOracle, ForecastLastValue} {
			s := benchSpec()
			s.Forecast = k
			res := runPolicies(b, s, Proposed(0.9, 42))
			name := "cost-forecast-oracle"
			if k == ForecastLastValue {
				name = "cost-forecast-lastvalue"
			}
			b.ReportMetric(float64(res[0].OpCost), name)
		}
	}
}

// BenchmarkExperimentSweep is the engine-level baseline: a 4-policy x
// 3-seed grid on the reduced scenario, executed by the parallel sweep
// engine at GOMAXPROCS. Later performance PRs (sharding, caching,
// multi-backend) must beat this trajectory. Reported: cells per second and
// the proposed method's mean cost across seeds, so both throughput and the
// reproduction's shape are tracked.
//
// When GEOVMP_BENCH_JSON names a path, the headline numbers are also
// written there as a machine-readable artifact (see PERFORMANCE.md), so CI
// logs carry the perf trajectory across PRs.
func BenchmarkExperimentSweep(b *testing.B) {
	var meanCost, cellsPerSec float64
	for i := 0; i < b.N; i++ {
		set, err := Experiment{
			Scenarios: []Spec{benchSpec()},
			Policies:  StandardPolicies(0.9),
			Seeds:     3,
		}.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		meanCost = 0
		for _, r := range set.Results(set.Scenarios[0], "Proposed") {
			meanCost += float64(r.OpCost)
		}
		meanCost /= 3
		cellsPerSec = float64(len(set.Cells)) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(meanCost, "eur-proposed-mean")
		b.ReportMetric(cellsPerSec, "cells/s")
	}
	if path := os.Getenv("GEOVMP_BENCH_JSON"); path != "" && b.N > 0 {
		writeBenchArtifact(b, path, meanCost, cellsPerSec)
	}
}

// writeBenchArtifact stores the sweep benchmark's headline numbers as JSON.
func writeBenchArtifact(b *testing.B, path string, meanCost, cellsPerSec float64) {
	b.Helper()
	artifact := struct {
		Benchmark       string  `json:"benchmark"`
		N               int     `json:"n"`
		CellsPerSec     float64 `json:"cells_per_sec"`
		ProposedMeanEUR float64 `json:"policy_mean_cost_eur_proposed"`
		NsPerOp         float64 `json:"ns_per_op"`
	}{
		Benchmark:       "BenchmarkExperimentSweep",
		N:               b.N,
		CellsPerSec:     cellsPerSec,
		ProposedMeanEUR: meanCost,
		NsPerOp:         float64(b.Elapsed().Nanoseconds()) / float64(b.N),
	}
	writeBenchJSON(b, path, artifact)
}

// benchEpochSpec is the rolling-horizon benchmark scenario: the
// geo5dc-dynamic preset (four epochs, shifting class mix, waving arrivals)
// reduced to bench size, with a per-epoch move budget so the engine-side
// migrate.Run revision is on the measured path.
func benchEpochSpec(epochs int) Spec {
	spec := MustPreset("geo5dc-dynamic")
	spec.Scale = 0.02
	spec.Seed = 42
	spec.Horizon = Days(1)
	spec.FineStepSec = 300
	spec.Epochs = epochs
	spec.Migration = MigrationBudget{MaxMovesPerEpoch: 200}
	return spec
}

// BenchmarkEpochSweep measures the rolling-horizon engine against the
// static path on the same dynamic workload: sub-benchmark "static" pins
// Epochs to 1 (epoch machinery active only for the budget, no boundary
// re-optimization), "epochs4" runs the preset's four epochs with boundary
// re-optimization, engine-side revision and migration charging. Reported:
// cells per second, the proposed method's cost, and total executed
// migrations — so both the engine's overhead and the dynamic scenario's
// shape are tracked across PRs.
//
// When GEOVMP_BENCH_EPOCH_JSON names a path, the epochs4 variant writes its
// headline numbers there (CI uploads it as BENCH_epoch.json).
func BenchmarkEpochSweep(b *testing.B) {
	run := func(b *testing.B, epochs int, fast bool) (costEUR, cellsPerSec, boundaryMS float64, migrations int) {
		b.Helper()
		var mu sync.Mutex
		var ctls []*core.Controller
		for i := 0; i < b.N; i++ {
			spec := benchEpochSpec(epochs)
			spec.FastMath = fast
			set, err := Experiment{
				Scenarios: []Spec{spec},
				Policies:  proposedCapture(0.9, &mu, &ctls),
				Seeds:     2,
			}.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			costEUR, migrations = 0, 0
			for _, r := range set.Results(set.Scenarios[0], "Proposed") {
				costEUR += float64(r.OpCost)
				migrations += r.Migrations
			}
			costEUR /= 2
			cellsPerSec = float64(len(set.Cells)) * float64(b.N) / b.Elapsed().Seconds()
		}
		// Mean embedding wall time spent on epoch-boundary re-optimization
		// slots per cell: the boundary's boosted iteration budget is where
		// the fast mode's frozen peers save the most.
		var boundaryNS int64
		for _, c := range ctls {
			boundaryNS += c.BoundaryEmbedNS
		}
		if len(ctls) > 0 {
			boundaryMS = float64(boundaryNS) / 1e6 / float64(len(ctls))
		}
		b.ReportMetric(cellsPerSec, "cells/s")
		b.ReportMetric(costEUR, "eur-proposed-mean")
		b.ReportMetric(float64(migrations), "migrations")
		if epochs > 1 {
			b.ReportMetric(boundaryMS, "boundary-embed-ms")
		}
		return costEUR, cellsPerSec, boundaryMS, migrations
	}
	b.Run("static", func(b *testing.B) { run(b, 1, false) })
	var exactBoundaryMS float64
	b.Run("epochs4", func(b *testing.B) {
		costEUR, cellsPerSec, boundaryMS, migrations := run(b, 4, false)
		exactBoundaryMS = boundaryMS
		path := os.Getenv("GEOVMP_BENCH_EPOCH_JSON")
		if path == "" || b.N == 0 {
			return
		}
		writeBenchJSON(b, path, struct {
			Benchmark       string  `json:"benchmark"`
			N               int     `json:"n"`
			CellsPerSec     float64 `json:"cells_per_sec"`
			ProposedMeanEUR float64 `json:"policy_mean_cost_eur_proposed"`
			Migrations      int     `json:"migrations"`
			BoundaryEmbedMS float64 `json:"boundary_embed_ms"`
			NsPerOp         float64 `json:"ns_per_op"`
		}{
			Benchmark:       "BenchmarkEpochSweep/epochs4",
			N:               b.N,
			CellsPerSec:     cellsPerSec,
			ProposedMeanEUR: costEUR,
			Migrations:      migrations,
			BoundaryEmbedMS: boundaryMS,
			NsPerOp:         float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
	b.Run("epochs4-fast", func(b *testing.B) {
		_, _, boundaryMS, _ := run(b, 4, true)
		if exactBoundaryMS > 0 && boundaryMS > 0 {
			b.ReportMetric(exactBoundaryMS/boundaryMS, "boundary-speedup-x")
		}
	})
}

// writeBenchJSON marshals one benchmark's headline-number artifact and
// stores it at path — the shared mechanics behind every BENCH_*.json;
// each benchmark keeps its own schema struct.
func writeBenchJSON(b *testing.B, path string, artifact any) {
	b.Helper()
	out, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// benchTraceWorkload is the streaming-compile benchmark's workload: a
// multi-day synthetic fleet large enough that the fine table is tens of
// MB, so the in-core/out-of-core comparison measures real table traffic.
func benchTraceWorkload() *trace.Workload {
	return trace.New(trace.Config{
		Seed:       42,
		Horizon:    Days(2),
		InitialVMs: 1500,
	})
}

// BenchmarkCompileStream measures the out-of-core trace pipeline against
// the in-core compile on the same workload: sub-benchmark "incore" builds
// the resident fine+profile tables outright; "stream" compiles under a
// 4 MiB per-table budget and then drives a FineCursor + ProfileCursor
// across every slot — the simulator's exact access pattern — so the
// reported throughput covers chunk compilation, not just bookkeeping.
// Reported: compiled slots per second per variant, the resident table MB
// of the in-core build, and the streamed window's peak MB (the memory the
// budget actually bounds).
//
// When GEOVMP_BENCH_TRACE_JSON names a path, the stream variant writes
// both throughputs there (CI uploads it as BENCH_trace.json and the
// benchdiff gate holds the *_per_sec fields to the committed baseline).
func BenchmarkCompileStream(b *testing.B) {
	const samples, fineStep = 12, 300
	opts := trace.CompileOptions{Samples: samples, FineStepSec: fineStep}
	var incoreSlotsPerSec, residentMB float64
	b.Run("incore", func(b *testing.B) {
		var c *trace.Compiled
		for i := 0; i < b.N; i++ {
			c = trace.Compile(benchTraceWorkload(), opts)
		}
		fineBytes, profBytes := c.TableBytes()
		residentMB = float64(fineBytes+profBytes) / (1 << 20)
		incoreSlotsPerSec = float64(c.Slots()) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(incoreSlotsPerSec, "slots/s")
		b.ReportMetric(residentMB, "resident-MB")
	})
	b.Run("stream", func(b *testing.B) {
		budgeted := opts
		budgeted.MaxFineTableBytes = 4 << 20
		var windowPeak int64
		var chunkSlots int
		var streamSlotsPerSec float64
		var sink float64
		for i := 0; i < b.N; i++ {
			c := trace.Compile(benchTraceWorkload(), budgeted)
			fineCur := c.NewFineCursor(nil)
			profCur := c.NewProfileCursor(nil)
			if _, profBytes := c.TableBytes(); c.FineChunkSlots() == 0 || profBytes <= budgeted.MaxFineTableBytes {
				b.Fatal("4 MiB budget did not stream the tables")
			}
			chunkSlots = c.FineChunkSlots()
			for sl := timeutil.Slot(0); sl < c.Slots(); sl++ {
				fineCur.Advance(sl)
				profCur.Advance(sl)
				if wb := fineCur.WindowBytes() + profCur.WindowBytes(); wb > windowPeak {
					windowPeak = wb
				}
				for _, id := range c.ActiveVMs(sl) {
					if row := fineCur.FineRow(id, sl); row != nil {
						sink += row[0]
					}
				}
			}
			streamSlotsPerSec = float64(c.Slots()) * float64(b.N) / b.Elapsed().Seconds()
		}
		_ = sink
		windowMB := float64(windowPeak) / (1 << 20)
		b.ReportMetric(streamSlotsPerSec, "slots/s")
		b.ReportMetric(windowMB, "window-MB")
		b.ReportMetric(float64(chunkSlots), "chunk-slots")
		path := os.Getenv("GEOVMP_BENCH_TRACE_JSON")
		if path == "" || b.N == 0 {
			return
		}
		writeBenchJSON(b, path, struct {
			Benchmark         string  `json:"benchmark"`
			N                 int     `json:"n"`
			IncoreSlotsPerSec float64 `json:"incore_slots_per_sec"`
			StreamSlotsPerSec float64 `json:"stream_slots_per_sec"`
			ResidentMB        float64 `json:"resident_table_mb"`
			WindowMB          float64 `json:"stream_window_mb"`
			ChunkSlots        int     `json:"chunk_slots"`
			NsPerOp           float64 `json:"ns_per_op"`
		}{
			Benchmark:         "BenchmarkCompileStream/stream",
			N:                 b.N,
			IncoreSlotsPerSec: incoreSlotsPerSec,
			StreamSlotsPerSec: streamSlotsPerSec,
			ResidentMB:        residentMB,
			WindowMB:          windowMB,
			ChunkSlots:        chunkSlots,
			NsPerOp:           float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
}

// benchServeLog compiles the geo5dc-dynamic preset at the given fleet
// scale and derives the serving daemon's replayable event log (per slot:
// one telemetry observation, then departures, then arrivals).
func benchServeLog(b *testing.B, scale float64) (*Scenario, []Event, int) {
	b.Helper()
	spec := MustPreset("geo5dc-dynamic")
	spec.Scale = scale
	spec.Seed = 42
	spec.Horizon = Days(1)
	spec.FineStepSec = 300
	sc, err := NewScenario(spec)
	if err != nil {
		b.Fatal(err)
	}
	events := EventsFromWorkload(sc.Workload, spec.Horizon, 12)
	arrivals := 0
	for _, ev := range events {
		if ev.Kind == EvPlace {
			arrivals++
		}
	}
	return sc, events, arrivals
}

// BenchmarkServe measures the online placement daemon on the dynamic
// preset: one day of geo5dc-dynamic churn replayed through a fresh daemon
// per iteration at full request parallelism, background reconciler
// enabled. Reported: sustained arrivals per second and the decision
// latency percentiles off the daemon's own metrics board — the serving
// SLO numbers quoted in PERFORMANCE.md. Sub-benchmarks run two fleet
// scales so per-decision cost growth with fleet size is tracked too.
//
// When GEOVMP_BENCH_SERVE_JSON names a path, the larger scale writes its
// headline numbers there (CI uploads it as BENCH_serve.json).
func BenchmarkServe(b *testing.B) {
	run := func(b *testing.B, scale float64) (arrivalsPerSec, p50ms, p99ms float64) {
		b.Helper()
		sc, events, arrivals := benchServeLog(b, scale)
		workers := 8
		b.ResetTimer()
		var d *Daemon
		for i := 0; i < b.N; i++ {
			var err error
			d, err = NewDaemon(sc, DaemonOptions{})
			if err != nil {
				b.Fatal(err)
			}
			d.Replay(events, workers)
		}
		lat := d.Board().Snapshot().Hists["serve_decision_latency"]
		arrivalsPerSec = float64(arrivals) * float64(b.N) / b.Elapsed().Seconds()
		p50ms, p99ms = lat.P50NS/1e6, lat.P99NS/1e6
		b.ReportMetric(arrivalsPerSec, "arrivals/s")
		b.ReportMetric(p50ms, "p50-ms")
		b.ReportMetric(p99ms, "p99-ms")
		b.ReportMetric(float64(lat.MaxNS)/1e6, "max-ms")
		return arrivalsPerSec, p50ms, p99ms
	}
	b.Run("scale2pct", func(b *testing.B) { run(b, 0.02) })
	b.Run("scale8pct", func(b *testing.B) {
		arrivalsPerSec, p50ms, p99ms := run(b, 0.08)
		path := os.Getenv("GEOVMP_BENCH_SERVE_JSON")
		if path == "" || b.N == 0 {
			return
		}
		writeBenchJSON(b, path, struct {
			Benchmark      string  `json:"benchmark"`
			N              int     `json:"n"`
			ArrivalsPerSec float64 `json:"arrivals_per_sec"`
			P50MS          float64 `json:"decision_p50_ms"`
			P99MS          float64 `json:"decision_p99_ms"`
			NsPerOp        float64 `json:"ns_per_op"`
		}{
			Benchmark:      "BenchmarkServe/scale8pct",
			N:              b.N,
			ArrivalsPerSec: arrivalsPerSec,
			P50MS:          p50ms,
			P99MS:          p99ms,
			NsPerOp:        float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
}

// benchFrontierBudget is the frontier benchmark's point budget.
const benchFrontierBudget = 11

// benchFrontier is the shared frontier benchmark configuration: the
// reduced dynamic preset under a cost/mean-response frontier at an
// 11-point budget, one seed.
func benchFrontier() Frontier {
	spec := MustPreset("geo5dc-dynamic")
	spec.Scale = 0.02
	spec.Seed = 42
	spec.Horizon = Days(1)
	spec.FineStepSec = 300
	return Frontier{
		Scenarios:   []Spec{spec},
		Objectives:  []Objective{CostObjective(), MeanRespObjective()},
		PointBudget: benchFrontierBudget,
	}
}

// BenchmarkFrontier measures frontier resolution at equal point budget:
// sub-benchmark "grid" spends the whole budget on one uniform alpha grid
// (the driver's coarse grid of the whole budget), "adaptive" runs the
// coarse-then-bisect driver (several waves over the same compiled
// scenario columns). Reported per variant: evaluated points
// per second and the run's hypervolume; the adaptive variant additionally
// reports both hypervolumes under a shared reference point — the apples-
// to-apples frontier-quality comparison — and how many compiles the
// column sharing saved versus compiling once per wave.
//
// When GEOVMP_BENCH_FRONTIER_JSON names a path, the adaptive variant
// writes the headline numbers there (CI uploads it as BENCH_frontier.json).
func BenchmarkFrontier(b *testing.B) {
	run := func(b *testing.B, fr Frontier) (sf *ScenarioFrontier, pointsPerSec float64) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			fs, err := fr.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			sf = fs.Scenarios[0]
		}
		pointsPerSec = float64(sf.Evals) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(pointsPerSec, "points/s")
		b.ReportMetric(sf.Hypervolume, "hypervolume")
		return sf, pointsPerSec
	}
	var grid *ScenarioFrontier
	b.Run("grid", func(b *testing.B) {
		fr := benchFrontier()
		fr.coarse = benchFrontierBudget
		grid, _ = run(b, fr)
	})
	b.Run("adaptive", func(b *testing.B) {
		before := experiment.CompileCount()
		fr := benchFrontier()
		fr.waveSize = 2
		adaptive, pointsPerSec := run(b, fr)
		compiles := experiment.CompileCount() - before
		// One compile per scenario x seed per run; without column sharing
		// every wave would have compiled its own.
		compilesSaved := int64(adaptive.Waves-1)*int64(b.N) - (compiles - int64(b.N))
		b.ReportMetric(float64(adaptive.Waves), "waves")
		b.ReportMetric(float64(compilesSaved)/float64(b.N), "compiles-saved")
		if grid == nil {
			return
		}
		// Frontier quality under one shared reference: the acceptance
		// criterion's comparison (same helper as TestAdaptiveBeatsFixedGrid),
		// tracked across PRs.
		hvAdaptive, hvGrid := sharedRefHypervolumes(adaptive, grid)
		b.ReportMetric(hvAdaptive, "hv-adaptive")
		b.ReportMetric(hvGrid, "hv-grid")
		path := os.Getenv("GEOVMP_BENCH_FRONTIER_JSON")
		if path == "" || b.N == 0 {
			return
		}
		writeBenchJSON(b, path, struct {
			Benchmark     string  `json:"benchmark"`
			N             int     `json:"n"`
			PointsPerSec  float64 `json:"points_per_sec"`
			Waves         int     `json:"waves"`
			Evals         int     `json:"evals"`
			CompilesSaved float64 `json:"compiles_saved_per_run"`
			HVAdaptive    float64 `json:"hv_adaptive_shared_ref"`
			HVGrid        float64 `json:"hv_grid_shared_ref"`
			NsPerOp       float64 `json:"ns_per_op"`
		}{
			Benchmark:     "BenchmarkFrontier/adaptive",
			N:             b.N,
			PointsPerSec:  pointsPerSec,
			Waves:         adaptive.Waves,
			Evals:         adaptive.Evals,
			CompilesSaved: float64(compilesSaved) / float64(b.N),
			HVAdaptive:    hvAdaptive,
			HVGrid:        hvGrid,
			NsPerOp:       float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
}

// benchFaultSpec is the survivability benchmark scenario: the geo5dc-faulty
// preset (reference outage schedule + RS(2,2) storage) reduced to bench
// size, with the horizon covering the whole-DC outage window and the
// degraded tail.
func benchFaultSpec() Spec {
	spec := MustPreset("geo5dc-faulty")
	spec.Scale = 0.02
	spec.Seed = 42
	spec.Horizon = HoursOf(16)
	spec.FineStepSec = 300
	return spec
}

// BenchmarkFaultSweep measures the fault-and-durability path against the
// same scenario with fault injection stripped: sub-benchmark "healthy"
// clears Faults and Storage (the engine takes the exact zero-fault code
// path), "faulty" runs the reference outage schedule with erasure-coded
// storage — schedule compilation, per-slot capacity scaling, forced
// evacuation, repair traffic and loss assessment all on the measured path.
// Reported: cells per second per variant, plus the faulty variant's
// survivability shape (loss probability, repair GB, evacuations).
//
// When GEOVMP_BENCH_FAULTS_JSON names a path, the faulty variant writes its
// headline numbers there (CI uploads it as BENCH_faults.json and the
// benchdiff gate holds cells_per_sec to the committed baseline).
func BenchmarkFaultSweep(b *testing.B) {
	run := func(b *testing.B, faulty bool) (cellsPerSec, lossProb, repairGB float64, evacs int) {
		b.Helper()
		spec := benchFaultSpec()
		if !faulty {
			spec.Faults = FaultConfig{}
			spec.Storage = StorageConfig{}
		}
		for i := 0; i < b.N; i++ {
			set, err := Experiment{
				Scenarios: []Spec{spec},
				Policies:  StandardPolicies(0.9)[:1],
				Seeds:     2,
			}.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			lossProb, repairGB, evacs = 0, 0, 0
			for _, r := range set.Results(set.Scenarios[0], "Proposed") {
				lossProb += r.DataLossProb
				repairGB += r.RepairBytes.GB()
				evacs += r.Evacuations
			}
			lossProb /= 2
			cellsPerSec = float64(len(set.Cells)) * float64(b.N) / b.Elapsed().Seconds()
		}
		b.ReportMetric(cellsPerSec, "cells/s")
		if faulty {
			b.ReportMetric(lossProb, "data-loss-prob")
			b.ReportMetric(repairGB, "repair-GB")
			b.ReportMetric(float64(evacs), "evacuations")
		}
		return cellsPerSec, lossProb, repairGB, evacs
	}
	b.Run("healthy", func(b *testing.B) { run(b, false) })
	b.Run("faulty", func(b *testing.B) {
		cellsPerSec, lossProb, repairGB, evacs := run(b, true)
		path := os.Getenv("GEOVMP_BENCH_FAULTS_JSON")
		if path == "" || b.N == 0 {
			return
		}
		writeBenchJSON(b, path, struct {
			Benchmark    string  `json:"benchmark"`
			N            int     `json:"n"`
			CellsPerSec  float64 `json:"cells_per_sec"`
			DataLossProb float64 `json:"data_loss_prob"`
			RepairGB     float64 `json:"repair_gb"`
			Evacuations  int     `json:"evacuations"`
			NsPerOp      float64 `json:"ns_per_op"`
		}{
			Benchmark:    "BenchmarkFaultSweep/faulty",
			N:            b.N,
			CellsPerSec:  cellsPerSec,
			DataLossProb: lossProb,
			RepairGB:     repairGB,
			Evacuations:  evacs,
			NsPerOp:      float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
}

// benchDistExperiment is the distributed-sweep benchmark grid: the shared
// reduced scenario under the four standard policies and three seeds — the
// same grid BenchmarkExperimentSweep runs in-process, so the two cells/s
// numbers are directly comparable.
func benchDistExperiment() Experiment {
	return Experiment{
		Scenarios: []Spec{benchSpec()},
		Policies:  StandardPolicies(0.9),
		Seeds:     3,
	}
}

// BenchmarkDistSweep measures the coordinator/worker grid against the
// in-process engine on the same 12-cell grid: sub-benchmark "local" is the
// plain parallel sweep, "workers1" and "workers2" lease every cell over the
// HTTP protocol to one and two connected workers (each evaluating serially,
// as a one-core-per-worker deployment would). The merged export is asserted
// byte-identical to the local run's every iteration, so the benchmark also
// guards the bit-identical-merge contract. Reported: cells per second per
// variant and the protocol overhead of workers1 versus local — on one host
// that overhead is all the distribution costs (leases, heartbeats, JSON
// rows, re-compiled columns); across real machines it is what scaling must
// amortize.
//
// When GEOVMP_BENCH_DIST_JSON names a path, the workers2 variant writes the
// headline numbers there (CI uploads it as BENCH_dist.json and the
// benchdiff gate holds cells_per_sec to the committed baseline).
func BenchmarkDistSweep(b *testing.B) {
	var localJSON []byte
	var localCellsPerSec float64
	b.Run("local", func(b *testing.B) {
		var set *ResultSet
		for i := 0; i < b.N; i++ {
			var err error
			set, err = benchDistExperiment().Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
		}
		var err error
		localJSON, err = set.JSON()
		if err != nil {
			b.Fatal(err)
		}
		localCellsPerSec = float64(len(set.Cells)) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(localCellsPerSec, "cells/s")
	})

	runDist := func(b *testing.B, nWorkers int) (cellsPerSec float64) {
		b.Helper()
		var cells int
		for i := 0; i < b.N; i++ {
			coord, err := NewCoordinator(CoordinatorConfig{})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, nWorkers)
			for w := 0; w < nWorkers; w++ {
				name := string(rune('a' + w))
				go func() {
					done <- RunDistWorker(ctx, DistWorkerConfig{
						Coordinator: coord.URL(),
						Name:        name,
						Parallelism: 1,
						Poll:        5 * time.Millisecond,
					})
				}()
			}
			exp := benchDistExperiment()
			exp.Coordinator = coord
			set, err := exp.Run(ctx)
			if err != nil {
				b.Fatal(err)
			}
			coord.Finish()
			for w := 0; w < nWorkers; w++ {
				if err := <-done; err != nil {
					b.Fatal(err)
				}
			}
			cancel()
			coord.Close()
			got, err := set.JSON()
			if err != nil {
				b.Fatal(err)
			}
			if localJSON != nil && !bytes.Equal(got, localJSON) {
				b.Fatal("distributed export differs from local export")
			}
			cells = len(set.Cells)
		}
		cellsPerSec = float64(cells) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(cellsPerSec, "cells/s")
		return cellsPerSec
	}

	var oneWorkerCellsPerSec float64
	b.Run("workers1", func(b *testing.B) {
		oneWorkerCellsPerSec = runDist(b, 1)
		if localCellsPerSec > 0 {
			b.ReportMetric((localCellsPerSec/oneWorkerCellsPerSec-1)*100, "pct-overhead-vs-local")
		}
	})
	b.Run("workers2", func(b *testing.B) {
		cellsPerSec := runDist(b, 2)
		if oneWorkerCellsPerSec > 0 {
			b.ReportMetric(cellsPerSec/oneWorkerCellsPerSec, "speedup-vs-1-worker")
		}
		path := os.Getenv("GEOVMP_BENCH_DIST_JSON")
		if path == "" || b.N == 0 {
			return
		}
		writeBenchJSON(b, path, struct {
			Benchmark        string  `json:"benchmark"`
			N                int     `json:"n"`
			CellsPerSec      float64 `json:"cells_per_sec"`
			OneWorkerPerSec  float64 `json:"one_worker_cells_per_sec"`
			LocalCellsPerSec float64 `json:"local_cells_per_sec"`
			NsPerOp          float64 `json:"ns_per_op"`
		}{
			Benchmark:        "BenchmarkDistSweep/workers2",
			N:                b.N,
			CellsPerSec:      cellsPerSec,
			OneWorkerPerSec:  oneWorkerCellsPerSec,
			LocalCellsPerSec: localCellsPerSec,
			NsPerOp:          float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		})
	})
}

// benchLargeSpec is the global-phase stress scenario: the geo5dc-large
// preset (1800 servers, ~12600 initial VMs — well past the embedding's
// exact-mode threshold) over a deliberately short horizon, so the benchmark
// measures the per-slot global phase at the fleet size it targets rather
// than a long week of it.
func benchLargeSpec() Spec {
	spec := MustPreset("geo5dc-large")
	spec.Seed = 42
	spec.Horizon = HoursOf(3)
	spec.FineStepSec = 900
	return spec
}

// BenchmarkGlobalPhase measures the paper's global phase at scale: a single
// Proposed-only cell on the geo5dc-large preset. The serial variant pins
// Parallelism to 1 — no intra-cell sharding, so gains over older commits
// isolate the packed peak-coincidence kernel — and the parallel variant
// lends the cell the full GOMAXPROCS budget, so the same slots additionally
// scale across the intra-cell shards (embedding passes, k-means distances,
// fine plans, workload compilation). Reported: simulated slots per second
// and the cell's cost, which must be identical across both variants.
//
// When GEOVMP_BENCH_GLOBAL_JSON names a path, the parallel variant writes
// its headline numbers there (CI uploads it as BENCH_global.json).
func BenchmarkGlobalPhase(b *testing.B) {
	run := func(b *testing.B, parallelism int, fast bool) (costEUR, slotsPerSec float64) {
		b.Helper()
		spec := benchLargeSpec()
		spec.FastMath = fast
		slots := float64(spec.Horizon.Slots)
		for i := 0; i < b.N; i++ {
			set, err := Experiment{
				Scenarios:   []Spec{spec},
				Policies:    StandardPolicies(0.9)[:1],
				Parallelism: parallelism,
			}.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			costEUR = float64(set.At(0, 0, 0).Result.OpCost)
		}
		slotsPerSec = slots * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(slotsPerSec, "slots/s")
		b.ReportMetric(costEUR, "eur-proposed")
		return costEUR, slotsPerSec
	}
	var serialCost, serialFastCost float64
	var parSlotsPerSec, parCost float64
	b.Run("serial", func(b *testing.B) {
		serialCost, _ = run(b, 1, false)
	})
	b.Run("serial-fast", func(b *testing.B) {
		serialFastCost, _ = run(b, 1, true)
	})
	b.Run("parallel", func(b *testing.B) {
		parCost, parSlotsPerSec = run(b, 0, false)
		if serialCost != 0 && parCost != serialCost {
			b.Fatalf("parallel cost %v != serial cost %v — sharding changed results", parCost, serialCost)
		}
	})
	b.Run("parallel-fast", func(b *testing.B) {
		cost, slotsPerSec := run(b, 0, true)
		// Fast mode is approximate versus exact, but must stay
		// deterministic across worker counts.
		if serialFastCost != 0 && cost != serialFastCost {
			b.Fatalf("parallel-fast cost %v != serial-fast cost %v — sharding changed results", cost, serialFastCost)
		}
		if path := os.Getenv("GEOVMP_BENCH_GLOBAL_JSON"); path != "" && b.N > 0 {
			artifact := struct {
				Benchmark       string  `json:"benchmark"`
				N               int     `json:"n"`
				SlotsPerSec     float64 `json:"slots_per_sec"`
				FastSlotsPerSec float64 `json:"fast_slots_per_sec"`
				ProposedEUR     float64 `json:"policy_cost_eur_proposed"`
				FastProposedEUR float64 `json:"fast_policy_cost_eur_proposed"`
				NsPerOp         float64 `json:"ns_per_op"`
			}{
				Benchmark:       "BenchmarkGlobalPhase/parallel",
				N:               b.N,
				SlotsPerSec:     parSlotsPerSec,
				FastSlotsPerSec: slotsPerSec,
				ProposedEUR:     parCost,
				FastProposedEUR: cost,
				NsPerOp:         float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			}
			writeBenchJSON(b, path, artifact)
		}
	})
}
