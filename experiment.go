package geovmp

import (
	"context"
	"fmt"

	"geovmp/internal/config"
	"geovmp/internal/experiment"
	"geovmp/internal/fault"
	"geovmp/internal/network"
	"geovmp/internal/sim"
	"geovmp/internal/storage"
)

// Experiment declares a sweep grid — scenarios x policies x seeds — and
// executes it on a context-cancellable worker pool, one fresh scenario
// replica and one fresh policy instance per cell. Results come back in
// deterministic grid order (scenario-major, then policy, then seed)
// regardless of how the cells were scheduled.
//
// The zero Experiment is the paper's evaluation: the Table I scenario under
// the four methods, one seed. Set fields to widen any axis:
//
//	set, err := geovmp.Experiment{
//	    Scenarios: []geovmp.Spec{
//	        {Name: "paper", Scale: 0.05},
//	        {Name: "no-battery", Scale: 0.05, BatteryScale: geovmp.BatteryZero},
//	    },
//	    Policies:    geovmp.StandardPolicies(0.9),
//	    Seeds:       5,
//	    Parallelism: 8,
//	}.Run(ctx)
type Experiment struct {
	// Scenarios is the scenario axis; each Spec carries its own name and
	// base seed. Write variants as Spec literals, or start from Preset /
	// MustPreset and set fields. Empty means the zero Spec.
	Scenarios []Spec
	// Policies is the policy axis; empty means StandardPolicies(0.9).
	Policies []PolicySpec
	// Seeds widens the seed axis to n consecutive seeds per scenario,
	// starting at each scenario's own base seed; 0 means one seed and a
	// negative count is an error.
	Seeds int
	// Parallelism is the sweep's total worker budget; <= 0 selects
	// GOMAXPROCS. The budget covers both concurrently running grid cells
	// and the intra-cell shards those cells spawn: min(n, cells)
	// goroutines run cells, the remainder is a shared budget the cells'
	// sharded passes (embedding, clustering, fine-plan evaluation,
	// workload compilation) borrow from, and a cell worker that runs out
	// of cells donates its slot back. A narrow grid on a big machine
	// therefore still saturates n workers, and cells x shards never exceed
	// it. Any value yields byte-identical results. A distributed run
	// ignores it: its parallelism is however many workers connect.
	Parallelism int
	// Progress, when non-nil, is called after each cell completes —
	// serialized, in completion order — for live sweep reporting.
	Progress func(Progress)
	// Resume, when non-nil, preloads cells completed by an earlier sweep of
	// the same grid (see LoadCheckpoint): matching cells carry the
	// checkpointed row instead of being recomputed, and because the engine
	// is deterministic the final export is byte-identical to a
	// from-scratch run, local or distributed.
	Resume *Checkpoint
	// Coordinator, when non-nil, leases the cells to the coordinator's
	// connected workers instead of running them in this process; the
	// merged ResultSet is byte-identical to a local run.
	Coordinator *Coordinator
}

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
// Experiment.Progress callback in completion order.
type Progress = experiment.Progress

// Run executes the grid, in this process or through e.Coordinator.
// Cancelling ctx abandons unfinished cells promptly (runs check the context
// every simulated hour) and returns the partially-filled ResultSet together
// with an error wrapping the cancellation cause; completed cells keep their
// results.
func (e Experiment) Run(ctx context.Context) (*ResultSet, error) {
	offsets, err := seedOffsets(e.Seeds)
	if err != nil {
		return nil, err
	}
	g := experiment.Grid{
		Scenarios:   e.Scenarios,
		Policies:    e.Policies,
		SeedOffsets: offsets,
		Parallelism: e.Parallelism,
		Progress:    e.Progress,
		Resume:      e.Resume,
	}
	if len(g.Scenarios) == 0 {
		g.Scenarios = []Spec{{}}
	}
	if len(g.Policies) == 0 {
		g.Policies = StandardPolicies(0.9)
	}
	if e.Coordinator != nil {
		return e.Coordinator.RunGrid(ctx, g)
	}
	return experiment.Run(ctx, g)
}

// seedOffsets is the seed axis of n consecutive seeds: offsets 0..n-1 added
// to each scenario's base seed. Zero means one seed.
func seedOffsets(n int) ([]uint64, error) {
	if n < 0 {
		return nil, fmt.Errorf("geovmp: Seeds %d: need at least one seed", n)
	}
	offsets := make([]uint64, max(n, 1))
	for i := range offsets {
		offsets[i] = uint64(i)
	}
	return offsets, nil
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
// Ener-aware, Pri-aware, Net-aware. Every spec carries its wire form, and
// its constructor is resolved from that form, so the standard grid
// distributes as-is.
func StandardPolicies(alpha float64) []PolicySpec {
	return []PolicySpec{
		builtinPolicySpec("Proposed", PolicyRef{Kind: PolicyKindProposed, Alpha: alpha}),
		builtinPolicySpec("Ener-aware", PolicyRef{Kind: PolicyKindEnerAware}),
		builtinPolicySpec("Pri-aware", PolicyRef{Kind: PolicyKindPriAware}),
		builtinPolicySpec("Net-aware", PolicyRef{Kind: PolicyKindNetAware}),
	}
}

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

// Site describes one data center of a custom fleet (see Spec.Sites).
type Site = config.Site

// TableISites returns the paper's fleet as a customizable site list.
func TableISites() []Site { return config.TableISites() }

// Topology is the inter-DC network graph (see Spec.Topo).
type Topology = network.Topology

// PaperTopology returns the paper's three-site 100 Gb/s full-mesh backbone.
func PaperTopology() *Topology { return network.PaperTopology() }

// MeshTopology derives a full-mesh topology from site coordinates with the
// paper's link speeds.
func MeshTopology(sites []Site) *Topology { return config.MeshTopology(sites) }

// BatteryZero is the battery-free ablation value for Spec.BatteryScale.
const BatteryZero = config.BatteryZero

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

// ReferenceFaults is the pinned incident schedule of the geo5dc-faulty
// preset: a whole-DC outage, degraded fleets at the surviving sites, a
// link brown-out and a PV dropout, plus mild stochastic background
// rates. The failure ablation replays it against every storage scheme.
func ReferenceFaults() FaultConfig { return config.ReferenceFaults() }
