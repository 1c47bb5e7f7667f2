// Package geovmp reproduces "Exploiting CPU-Load and Data Correlations in
// Multi-Objective VM Placement for Geo-Distributed Data Centers" (Pahlevan,
// Garcia del Valle, Atienza — DATE 2016) as a runnable Go library, built
// around a parallel, cancellable, scenario-diverse experiment engine.
//
// The central type is Experiment: a plain struct literal declaring a grid
// of scenarios x policies x seeds, whose Run executes it on a worker pool
// (or, with a Coordinator, on remote workers), one fresh scenario replica
// and one fresh policy instance per cell, returning a structured ResultSet
// in deterministic grid order. Zero fields take the paper's defaults:
//
//	set, err := geovmp.Experiment{
//	    Scenarios:   []geovmp.Spec{{Name: "paper", Scale: 0.05}},
//	    Policies:    geovmp.StandardPolicies(0.9),
//	    Seeds:       3,
//	    Parallelism: 8,
//	}.Run(ctx)
//
// The building blocks underneath:
//
//   - Proposed() builds the paper's two-phase controller: force-directed
//     embedding of VMs under data-correlation attraction and CPU-load-
//     correlation repulsion, energy-capacity-capped k-means clustering per
//     DC, migration revision under the network latency constraint
//     (Algorithm 2), and correlation-aware local server allocation with
//     DVFS. EnerAware, PriAware and NetAware build the three baselines;
//     StandardPolicies wraps all four as per-cell factories.
//   - Spec describes a scenario in plain fields: fleet scale, custom Site
//     lists beyond Table I, topology overrides, workload class mix,
//     forecaster, QoS, warmup and profile-sampling knobs. Preset returns
//     registered named scenarios ("paper-geo3dc", "geo5dc",
//     "paper-geo3dc-nobattery") to start from. The zero Spec is the paper's
//     Sect. V world: the Table I fleet (Lisbon / Zurich / Helsinki), PV
//     plants with WCMA forecasting, lithium-ion batteries at 50% DoD,
//     two-level tariffs, the full-mesh 100 Gb/s backbone with stochastic
//     BERs, and the synthetic multi-class workload.
//   - NewScenario and Run are the single-run primitives under the
//     engine. Run reads the workload and the site models only through
//     compiled tables, compiling a raw workload itself, so a single Run
//     equals the matching engine cell bit for bit.
//   - Spec.Epochs and Spec.Migration turn a scenario into a
//     rolling-horizon run: the placement re-optimizes at every epoch
//     boundary, migrations are revised under a per-epoch budget, each
//     move's transfer energy and downtime are charged into the metrics,
//     and Result carries a per-epoch breakdown. The geo3dc-diurnal and
//     geo5dc-dynamic presets ship workloads whose class mix and load
//     shift across epochs.
//   - Frontier, declared the same way, resolves multi-objective trade-off
//     frontiers over the controller's alpha: configurable Objective
//     extractors, non-dominated sorting with hypervolume/spread
//     indicators and knee-point selection, and an adaptive driver that
//     bisects the largest hypervolume gaps — every refinement wave
//     reusing the scenario's compiled workload. ParetoSearch is the
//     metaheuristic search baseline the frontier pits against the
//     paper's controller.
//
// Everything is deterministic in the seeds: a sweep's ResultSet — and its
// JSON export — is byte-identical at any parallelism.
package geovmp

import (
	"geovmp/internal/config"
	"geovmp/internal/core"
	"geovmp/internal/policy"
	"geovmp/internal/report"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/trace"
	"geovmp/internal/viz"
)

// Policy is a complete placement method (global clustering phase + local
// allocation phase). Implementations: Proposed, EnerAware, PriAware,
// NetAware.
type Policy = policy.Policy

// Scenario is a fully-constructed evaluation world. Its fleet and
// forecaster state are mutable; use one Scenario per Run.
type Scenario = sim.Scenario

// Result carries one run's metrics: operational cost (Fig. 1), facility
// energy (Fig. 2), the response-time distribution (Fig. 3), migration and
// consolidation counters, and energy sourcing totals.
type Result = sim.Result

// Spec parameterizes scenario construction; the zero value plus a Seed
// gives the paper's one-week Table I setup at full scale. Its fields and
// defaults are documented on config.Spec and tabulated in the README.
type Spec = config.Spec

// Horizon is an experiment duration in one-hour slots.
type Horizon = timeutil.Horizon

// ForecastKind selects the renewable-energy forecaster.
type ForecastKind = config.ForecastKind

// Forecaster choices for Spec.Forecast.
const (
	ForecastWCMA      = config.ForecastWCMA
	ForecastEWMA      = config.ForecastEWMA
	ForecastLastValue = config.ForecastLastValue
	ForecastOracle    = config.ForecastOracle
)

// Week returns the paper's one-week horizon; Days and Hours build shorter
// ones.
func Week() Horizon { return timeutil.Week() }

// Days returns an n-day horizon.
func Days(n int) Horizon { return timeutil.Days(n) }

// HoursOf returns an n-hour horizon.
func HoursOf(n int) Horizon { return timeutil.Hours(n) }

// Proposed returns the paper's two-phase multi-objective controller. alpha
// in [0,1] weighs performance (data correlation, toward 1) against energy
// (CPU-load correlation, toward 0); out-of-range values select the default
// 0.9. A controller carries per-slot state: use a fresh one per Run.
func Proposed(alpha float64, seed uint64) *core.Controller {
	return core.New(alpha, seed)
}

// EnerAware returns the energy-aware baseline [5] (Kim et al., DATE 2013):
// FFD clustering over DCs plus correlation-aware local allocation.
func EnerAware() Policy { return policy.EnerAware{} }

// PriAware returns the cost-aware baseline [17] (Gu et al., ICNC 2015):
// greedy packing onto the DCs with the lowest current grid price.
func PriAware() Policy { return policy.PriAware{} }

// NetAware returns the network-aware baseline [6] (Biran et al., CCGRID
// 2012, GH heuristic): traffic-affine, load-balanced placement.
func NetAware() Policy { return policy.NetAware{} }

// NewScenario builds the evaluation world described by spec. Each call
// returns independent mutable state, so build one per policy when
// comparing.
func NewScenario(spec Spec) (*Scenario, error) { return config.Build(spec) }

// Run simulates pol over sc and returns its metrics. A workload that is
// not already compiled at the scenario's profile sampling and fine step is
// compiled first (see CompileWorkload).
func Run(sc *Scenario, pol Policy) (*Result, error) { return sim.Run(sc, pol) }

// AllPolicies returns the paper's four methods in evaluation order:
// Proposed, Ener-aware, Pri-aware, Net-aware.
func AllPolicies(alpha float64, seed uint64) []Policy {
	return []Policy{Proposed(alpha, seed), EnerAware(), PriAware(), NetAware()}
}

// Summarize renders a one-line-per-policy metrics table for a result set.
func Summarize(results []*Result) string { return report.Summary(results) }

// Figure is one regenerated table or figure of the paper's evaluation
// (Render for text, WriteCSV for data).
type Figure = report.Figure

// Workload is the interface feeding VMs, traces and volumes into the
// simulator. NewScenario installs the synthetic generator; LoadWorkload
// reads a replayed trace directory instead.
type Workload = trace.Source

// ExportWorkload writes the first `slots` hours of any workload to dir in
// the replay CSV format (vms.csv / profiles.csv / volumes.csv) with
// `samples` utilization samples per slot.
func ExportWorkload(w Workload, dir string, slots Horizon, samples int) error {
	return trace.ExportReplay(w, dir, slots.Slots, samples)
}

// LoadWorkload reads a replay directory written by ExportWorkload (or
// produced from real DC traces in the same format). Assign the result to
// Scenario.Workload to drive experiments with it.
func LoadWorkload(dir string) (Workload, error) { return trace.LoadReplay(dir) }

// IngestOptions parameterizes IngestWorkload: profile resolution, the CPU
// column's scale, default image size, and fleet/horizon bounds.
type IngestOptions = trace.IngestOptions

// IngestWorkload streams a raw Azure/Google-style cluster trace — a VM
// lifetime CSV plus a per-interval CPU-utilization CSV — into a replayable
// workload. Both files are read row by row, so memory stays proportional
// to the binned profiles, never the input size. The zero IngestOptions
// selects Azure-style defaults (12 samples/slot, percent CPU readings).
func IngestWorkload(vmCSV, cpuCSV string, opt IngestOptions) (Workload, error) {
	return trace.IngestCluster(vmCSV, cpuCSV, opt)
}

// UsageTemplate is a fitted parameterization of one family of VM behavior,
// derived from a real trace by FitTemplates and consumed by
// Spec.Templates to calibrate the synthetic generator.
type UsageTemplate = trace.UsageTemplate

// FitTemplates fits k usage templates to a workload by clustering per-VM
// trace statistics (mean level, diurnal amplitude and phase, within-slot
// variability, day-to-day variance, lifetime). The fit is deterministic.
// samples is the per-slot profile resolution read from w (0 selects 12).
func FitTemplates(w Workload, k, samples int) []UsageTemplate {
	return trace.FitTemplates(w, k, samples)
}

// WindowWorkload returns a read-only view of w restricted to `slots` hours
// starting at hour `startHour`, re-based so the window opens at slot 0 —
// the per-epoch view of a workload. Over a compiled trace the view keeps
// serving from the compiled tables, so slicing an epoch out of a dynamic
// workload (for export with ExportWorkload, or to simulate it in
// isolation) costs nothing.
func WindowWorkload(w Workload, startHour int, slots Horizon) Workload {
	return trace.Window(w, timeutil.Slot(startHour), slots.Slots)
}

// CompileWorkload materializes any workload into immutable flat per-slot
// tables — downsampled profiles, fine-step utilization rows, volume entry
// lists — that the simulator consumes without synthesizing or allocating in
// its hot loops. samples is the per-slot profile length and fineStepSec the
// green-controller period the tables are aligned with; pass 0 for the
// simulator defaults (12 and 5 s).
//
// The experiment engine compiles each scenario x seed's workload
// automatically and shares it across that column's policy runs; call this
// only to pre-compile a workload you inject through Spec.Workload under
// non-default Spec.ProfileSamples / Spec.FineStepSec settings, or to
// reuse one compiled trace across many experiments.
func CompileWorkload(w Workload, samples int, fineStepSec float64) Workload {
	return trace.Compile(w, trace.CompileOptions{Samples: samples, FineStepSec: fineStepSec})
}

// Figures regenerates the paper's Table I and Figs. 1-6 from a result set
// produced over sc (or an identical scenario replica).
func Figures(sc *Scenario, results []*Result) []*Figure {
	return report.All(sc.Fleet, results)
}

// ProposedController is the concrete type behind Proposed, exposing the
// controller's settings (Alpha, NoEmbedding and the embedding's Embed
// config) and its embedding layout via Positions.
type ProposedController = core.Controller

// EmbeddingSVG renders a Proposed controller's current 2D point layout as
// an SVG document, coloring each VM by groupOf (for example its final DC
// from Result.FinalPlacement); groups names the legend entries.
func EmbeddingSVG(ctrl *ProposedController, title string, groupOf func(id int) int, groups []string) string {
	return viz.Plane(title, ctrl.Positions(), groupOf, groups)
}
