package geovmp

import (
	"context"
	"errors"
	"fmt"

	"geovmp/internal/config"
	"geovmp/internal/experiment"
	"geovmp/internal/fault"
	"geovmp/internal/network"
	"geovmp/internal/sim"
	"geovmp/internal/storage"
	"geovmp/internal/trace"
)

// Experiment declares a sweep grid — scenarios x policies x seeds — and
// executes it on a context-cancellable worker pool, one fresh scenario
// replica and one fresh policy instance per cell. Results come back in
// deterministic grid order (scenario-major, then policy, then seed)
// regardless of how the cells were scheduled.
//
// The zero experiment is the paper's evaluation: the Table I scenario under
// the four methods, one seed. Options widen any axis:
//
//	set, err := geovmp.NewExperiment(
//	    geovmp.WithScenarios(
//	        geovmp.NewSpec("paper", geovmp.WithScale(0.05)),
//	        geovmp.NewSpec("no-battery", geovmp.WithScale(0.05),
//	            geovmp.WithBatteryScale(geovmp.BatteryZero)),
//	    ),
//	    geovmp.WithPolicies(geovmp.StandardPolicies(0.9)...),
//	    geovmp.WithSeeds(5),
//	    geovmp.WithParallelism(8),
//	).Run(ctx)
type Experiment struct {
	grid experiment.Grid
	errs []error
}

// ExperimentOption configures an Experiment under construction.
type ExperimentOption func(*Experiment)

// PolicySpec names a policy and constructs a fresh instance per grid cell
// (stateful policies must never be shared between runs). The seed passed to
// New is the cell's absolute seed.
type PolicySpec = experiment.PolicySpec

// ResultSet is a sweep's structured outcome: every grid cell with its
// identity, result or error, plus grouping (Group), per-scenario mean/std
// aggregation (Aggregate) and deterministic JSON export (JSON, WriteJSON).
type ResultSet = experiment.Set

// ResultCell is one (scenario, policy, seed) evaluation in a ResultSet.
type ResultCell = experiment.Cell

// Progress is one completion event of a running sweep, delivered to the
// WithProgress callback in completion order.
type Progress = experiment.Progress

// NewExperiment builds an experiment from options. Without options it
// reproduces the paper's evaluation grid: the Table I scenario, the four
// methods at alpha 0.9, one seed.
func NewExperiment(opts ...ExperimentOption) *Experiment {
	e := &Experiment{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// WithScenarios sets the scenario axis. Each Spec carries its own name and
// base seed; build variants with NewSpec plus ScenarioOptions, or start
// from Preset.
func WithScenarios(specs ...Spec) ExperimentOption {
	return func(e *Experiment) {
		e.grid.Scenarios = append(e.grid.Scenarios, specs...)
	}
}

// WithPresets appends registered named scenarios (see PresetNames) to the
// scenario axis. Unknown names surface as an error from Run.
func WithPresets(names ...string) ExperimentOption {
	return func(e *Experiment) {
		for _, n := range names {
			spec, err := config.Preset(n)
			if err != nil {
				e.errs = append(e.errs, err)
				continue
			}
			e.grid.Scenarios = append(e.grid.Scenarios, spec)
		}
	}
}

// WithPolicies sets the policy axis.
func WithPolicies(specs ...PolicySpec) ExperimentOption {
	return func(e *Experiment) {
		e.grid.Policies = append(e.grid.Policies, specs...)
	}
}

// WithSeeds widens the seed axis to n consecutive seeds per scenario,
// starting at each scenario's own base seed.
func WithSeeds(n int) ExperimentOption {
	return func(e *Experiment) {
		if n < 1 {
			e.errs = append(e.errs, fmt.Errorf("geovmp: WithSeeds(%d): need at least one seed", n))
			return
		}
		offsets := make([]uint64, n)
		for i := range offsets {
			offsets[i] = uint64(i)
		}
		e.grid.SeedOffsets = offsets
	}
}

// WithParallelism sets the sweep's total worker budget; n <= 0 (the
// default) selects GOMAXPROCS. The budget covers both concurrently running
// grid cells and the intra-cell shards those cells spawn: min(n, cells)
// goroutines run cells, the remainder is a shared budget the cells'
// sharded passes (embedding, clustering, fine-plan evaluation, workload
// compilation) borrow from, and a cell worker that runs out of cells
// donates its slot back. A narrow grid on a big machine therefore still
// saturates n workers, and cells x shards never exceed it. Any value
// yields byte-identical results.
func WithParallelism(n int) ExperimentOption {
	return func(e *Experiment) { e.grid.Parallelism = n }
}

// WithProgress installs a callback invoked after each cell completes —
// serialized, in completion order — for live sweep reporting.
func WithProgress(fn func(Progress)) ExperimentOption {
	return func(e *Experiment) { e.grid.Progress = fn }
}

// WithResume preloads cells completed by an earlier sweep of the same grid
// (see LoadCheckpoint): matching cells carry the checkpointed row instead
// of being recomputed, and because the engine is deterministic the final
// export is byte-identical to a from-scratch run. Works for both the
// in-process path and RunDistributed.
func WithResume(ck *Checkpoint) ExperimentOption {
	return func(e *Experiment) { e.grid.Resume = ck }
}

// Run executes the grid. Cancelling ctx abandons unfinished cells promptly
// (runs check the context every simulated hour) and returns the
// partially-filled ResultSet together with an error wrapping the
// cancellation cause; completed cells keep their results.
func (e *Experiment) Run(ctx context.Context) (*ResultSet, error) {
	g, err := e.buildGrid()
	if err != nil {
		return nil, err
	}
	return experiment.Run(ctx, g)
}

// buildGrid materializes the experiment's grid with the documented
// defaults applied — shared by Run and RunDistributed so both paths sweep
// exactly the same grid.
func (e *Experiment) buildGrid() (experiment.Grid, error) {
	if len(e.errs) > 0 {
		return experiment.Grid{}, errors.Join(e.errs...)
	}
	g := e.grid
	if len(g.Scenarios) == 0 {
		g.Scenarios = []Spec{{}}
	}
	if len(g.Policies) == 0 {
		g.Policies = StandardPolicies(0.9)
	}
	return g, nil
}

// NewPolicySpec wraps a named policy constructor for the policy axis. Specs
// built this way run in-process only: a bare closure has no wire form, so a
// distributed sweep rejects them — use NewRefPolicySpec (or the Ref-carrying
// StandardPolicies) for grids that must travel.
func NewPolicySpec(name string, mk func(seed uint64) Policy) PolicySpec {
	return PolicySpec{Name: name, New: mk}
}

// StandardPolicies returns the paper's four methods as per-cell factories
// in evaluation order: Proposed (at the given alpha, seeded per cell),
// Ener-aware, Pri-aware, Net-aware. Every spec carries its wire form, so
// the standard grid distributes as-is.
func StandardPolicies(alpha float64) []PolicySpec {
	return []PolicySpec{
		{
			Name: "Proposed",
			New:  func(seed uint64) Policy { return Proposed(alpha, seed) },
			Ref:  &PolicyRef{Kind: "proposed", Alpha: alpha},
		},
		{
			Name: "Ener-aware",
			New:  func(uint64) Policy { return EnerAware() },
			Ref:  &PolicyRef{Kind: "ener"},
		},
		{
			Name: "Pri-aware",
			New:  func(uint64) Policy { return PriAware() },
			Ref:  &PolicyRef{Kind: "pri"},
		},
		{
			Name: "Net-aware",
			New:  func(uint64) Policy { return NetAware() },
			Ref:  &PolicyRef{Kind: "net"},
		},
	}
}

// ScenarioOption customizes a Spec during NewSpec construction: fleet scale
// and sites, topology, workload mix, horizon, forecaster, QoS, warmup and
// profile-sampling knobs.
type ScenarioOption = config.Option

// NewSpec builds a named scenario spec from options; the empty option set
// is the paper's Table I world.
func NewSpec(name string, opts ...ScenarioOption) Spec { return config.NewSpec(name, opts...) }

// Preset returns a registered named scenario spec: "paper-geo3dc" (the
// Table I world), "paper-geo3dc-nobattery" (batteries removed), "geo5dc"
// (five European sites on a great-circle mesh).
func Preset(name string) (Spec, error) { return config.Preset(name) }

// MustPreset is Preset, panicking on unknown names — for examples and
// tests.
func MustPreset(name string) Spec {
	spec, err := config.Preset(name)
	if err != nil {
		panic(err)
	}
	return spec
}

// PresetNames lists the registered scenario presets.
func PresetNames() []string { return config.PresetNames() }

// Site describes one data center of a custom fleet (see WithSites).
type Site = config.Site

// TableISites returns the paper's fleet as a customizable site list.
func TableISites() []Site { return config.TableISites() }

// Topology is the inter-DC network graph (see WithTopology).
type Topology = network.Topology

// PaperTopology returns the paper's three-site 100 Gb/s full-mesh backbone.
func PaperTopology() *Topology { return network.PaperTopology() }

// MeshTopology derives a full-mesh topology from site coordinates with the
// paper's link speeds.
func MeshTopology(sites []Site) *Topology { return config.MeshTopology(sites) }

// BatteryZero is the battery-free ablation value for WithBatteryScale.
const BatteryZero = config.BatteryZero

// Scenario-axis options, re-exported from the config layer.

// WithScale multiplies fleet sizes and energy sources (1.0 = Table I).
func WithScale(scale float64) ScenarioOption { return config.WithScale(scale) }

// WithSeed sets the scenario's base randomness seed.
func WithSeed(seed uint64) ScenarioOption { return config.WithSeed(seed) }

// WithHorizon sets the experiment duration (Week, Days, HoursOf).
func WithHorizon(h Horizon) ScenarioOption { return config.WithHorizon(h) }

// WithVMsPerServer sizes the workload relative to the fleet (default 7).
func WithVMsPerServer(v float64) ScenarioOption { return config.WithVMsPerServer(v) }

// WithFineStep sets the green-controller period in seconds (paper: 5).
func WithFineStep(sec float64) ScenarioOption { return config.WithFineStep(sec) }

// WithQoS sets the migration latency guarantee (paper: 0.98).
func WithQoS(q float64) ScenarioOption { return config.WithQoS(q) }

// WithForecast selects the renewable forecaster.
func WithForecast(k ForecastKind) ScenarioOption { return config.WithForecast(k) }

// WithBatteryScale additionally scales battery capacity; BatteryZero gives
// the battery-free ablation.
func WithBatteryScale(b float64) ScenarioOption { return config.WithBatteryScale(b) }

// WithSites replaces the Table I fleet with a custom site list; the
// topology defaults to a great-circle mesh over the sites' coordinates.
func WithSites(sites ...Site) ScenarioOption { return config.WithSites(sites...) }

// WithTopology overrides the inter-DC network topology.
func WithTopology(t *Topology) ScenarioOption { return config.WithTopology(t) }

// WithClassWeights overrides the workload class mix in class order
// (websearch, mapreduce, hpc, batch).
func WithClassWeights(weights ...float64) ScenarioOption {
	return config.WithClassWeights(weights...)
}

// WithWarmupSlots sets how many leading slots are excluded from metrics
// (default 6; negative disables warmup).
func WithWarmupSlots(n int) ScenarioOption { return config.WithWarmupSlots(n) }

// WithProfileSamples sets the per-slot CPU-profile length policies observe
// (default 12).
func WithProfileSamples(n int) ScenarioOption { return config.WithProfileSamples(n) }

// WithWorkload installs a pre-built workload (for example one returned by
// LoadWorkload) instead of the synthetic generator. The source must be safe
// for concurrent readers when used in a parallel sweep.
func WithWorkload(w Workload) ScenarioOption { return config.WithWorkload(trace.Source(w)) }

// WithReplayDir drives the scenario from a replay trace directory
// (vms.csv / profiles.csv / volumes.csv, as written by ExportWorkload)
// instead of the synthetic generator. The directory is loaded at scenario
// build time, so errors surface from NewScenario / Experiment.Run.
func WithReplayDir(dir string) ScenarioOption { return config.WithReplayDir(dir) }

// WithTraceFile drives the scenario from a raw Azure/Google-style cluster
// trace: a VM lifetime CSV plus a per-interval CPU-utilization CSV,
// streamed through IngestCluster at scenario build time.
func WithTraceFile(vmCSV, cpuCSV string) ScenarioOption { return config.WithTraceFile(vmCSV, cpuCSV) }

// WithUsageTemplates calibrates the synthetic generator to fitted usage
// templates (see FitTemplates): services draw their class and utilization
// parameters from the templates instead of the built-in class ranges.
func WithUsageTemplates(ts ...UsageTemplate) ScenarioOption {
	return config.WithUsageTemplates(ts...)
}

// WithFineTableBudget bounds the resident bytes of each compiled workload
// table (fine and profile). Tables over the budget compile chunked and
// stream through the simulator in bounded slot windows; results stay
// byte-identical to the unbounded path. 0 keeps the 256 MiB default;
// negative disables the fine table entirely (legacy behavior).
func WithFineTableBudget(bytes int64) ScenarioOption { return config.WithFineTableBudget(bytes) }

// WithChunkSlots pins the chunk width (in slots) used when a compiled
// table exceeds the fine-table budget, overriding the width derived from
// the budget. 0 derives it; useful to make streaming-compile benchmarks
// reproducible across fleets.
func WithChunkSlots(n int) ScenarioOption { return config.WithChunkSlots(n) }

// MigrationBudget parameterizes the rolling-horizon engine's migration
// accounting: a per-epoch executed-move budget plus the transfer energy
// (J/GB, split between source and destination DC) and per-move service
// downtime charged into the per-slot accounting. The zero value means
// engine defaults (unlimited moves, sim.DefaultMigEnergyPerGB,
// sim.DefaultMigDowntimeSec); negative charging fields disable the charge.
type MigrationBudget = sim.MigrationBudget

// EpochStat is one epoch's slice of a rolling-horizon Result: cost, energy,
// migration counts, charged migration energy and downtime over the epoch's
// measured slots.
type EpochStat = sim.EpochStat

// Rolling-engine migration charging defaults (see MigrationBudget).
const (
	DefaultMigEnergyPerGB = sim.DefaultMigEnergyPerGB // J per GB of image moved
	DefaultMigDowntimeSec = sim.DefaultMigDowntimeSec // s of pause per move
)

// WithEpochs splits the scenario's horizon into n rolling-horizon epochs:
// the placement is re-optimized at every epoch boundary (warm-started from
// the carried state), the per-epoch migration budget resets, and Result /
// ResultSet JSON gain a per-epoch breakdown. WithEpochs(1) is the static
// path — byte-identical to not setting it.
func WithEpochs(n int) ScenarioOption { return config.WithEpochs(n) }

// WithMigrationBudget sets the rolling engine's migration budget and
// charging model. Setting it activates the engine even at WithEpochs(1).
func WithMigrationBudget(b MigrationBudget) ScenarioOption { return config.WithMigrationBudget(b) }

// WithEpochClassWeights schedules synthetic workload class-mix regimes
// (class order: websearch, mapreduce, hpc, batch): the horizon splits into
// len(rows) equal phases, shifting the fleet's composition across the
// horizon. Pair the row count with WithEpochs to align regime shifts with
// the engine's re-optimization boundaries.
func WithEpochClassWeights(rows ...[]float64) ScenarioOption {
	return config.WithEpochClassWeights(rows...)
}

// WithArrivalWave modulates the synthetic arrival rate diurnally with
// amplitude a in [0, 1).
func WithArrivalWave(a float64) ScenarioOption { return config.WithArrivalWave(a) }

// WithFastMath opts controllers into the approximate fast-numeric mode:
// the quantized peak-coincidence kernel and frozen sampled peers in the
// embedding. Default off — unset runs stay bit-identical to prior
// releases. Results remain deterministic at any worker count; metrics
// shift within the tolerance documented in PERFORMANCE.md.
func WithFastMath() ScenarioOption { return config.WithFastMath() }

// FaultConfig declares a failure schedule: explicit outage windows plus
// per-day stochastic rates for server-batch, whole-DC, link and PV
// failures, compiled deterministically per scenario seed. The zero
// config disables injection entirely.
type FaultConfig = fault.Config

// Outage is one explicit failure window inside a FaultConfig.
type Outage = fault.Outage

// FaultKind discriminates failure targets inside an Outage.
type FaultKind = fault.Kind

// Failure kinds for explicit outage windows.
const (
	FaultServer = fault.KindServer // a fraction of one DC's servers
	FaultDC     = fault.KindDC     // a whole data center
	FaultLink   = fault.KindLink   // one directed inter-DC link
	FaultPV     = fault.KindPV     // one DC's PV production
)

// StorageConfig declares the durable data-placement model: VM volumes
// grouped into placement groups kept as full replicas or RS(k,m)
// stripes across the DCs. Under faults it yields the data-loss-risk and
// repair-bandwidth metrics.
type StorageConfig = storage.Config

// StorageScheme selects the redundancy code inside a StorageConfig.
type StorageScheme = storage.Scheme

// Redundancy schemes.
const (
	StorageNone       = storage.SchemeNone
	StorageReplicated = storage.SchemeReplicated
	StorageErasure    = storage.SchemeErasure
)

// WithFaults injects a failure schedule into the scenario. The zero
// config keeps the run byte-identical to a spec without faults.
func WithFaults(f FaultConfig) ScenarioOption { return config.WithFaults(f) }

// WithStorage attaches the durable data-placement model.
func WithStorage(st StorageConfig) ScenarioOption { return config.WithStorage(st) }

// ReferenceFaults is the pinned incident schedule of the geo5dc-faulty
// preset: a whole-DC outage, degraded fleets at the surviving sites, a
// link brown-out and a PV dropout, plus mild stochastic background
// rates. The failure ablation replays it against every storage scheme.
func ReferenceFaults() FaultConfig { return config.ReferenceFaults() }
