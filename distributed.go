package geovmp

import (
	"context"

	"geovmp/internal/dist"
	"geovmp/internal/experiment"
)

// Distributed sweeps: the same deterministic grid engine, sharded across
// machines. A Coordinator decomposes the grid into cell work items and
// serves them over an HTTP/JSON lease protocol; any number of workers
// (RunDistWorker, or the geovmp-worker binary) pull items, compile the
// scenario column locally, evaluate the cell with the in-process engine
// code, and stream the flattened row back. The merged ResultSet — and its
// JSON export — is byte-identical to running the grid in one process.
//
//	coord, _ := geovmp.NewCoordinator(geovmp.CoordinatorConfig{})
//	defer coord.Close()
//	// elsewhere (any machine that can reach coord.URL()):
//	go geovmp.RunDistWorker(ctx, geovmp.DistWorkerConfig{Coordinator: coord.URL()})
//	set, err := geovmp.Experiment{
//	    Scenarios:   []geovmp.Spec{geovmp.MustPreset("paper-geo3dc"), geovmp.MustPreset("geo5dc")},
//	    Seeds:       2,
//	    Coordinator: coord,
//	}.Run(ctx)
//
// Failure handling is lease-based and fixed: a lease lasts 30 s and the
// worker's heartbeats renew it, so a worker that dies mid-cell lets its
// lease expire and the coordinator re-queues the cell, backing off from
// 250 ms up to 10 s and giving up after 5 attempts.
// CoordinatorConfig.CheckpointPath persists completed cells after every
// result, so a killed coordinator resumes via LoadCheckpoint and
// Experiment.Resume without recomputing them.

// Coordinator shards experiment grids across connected workers. See
// NewCoordinator.
type Coordinator = dist.Coordinator

// CoordinatorConfig holds NewCoordinator's deployment settings: listen
// address, checkpoint path, metrics board and log sink. The zero value
// listens on a loopback ephemeral port and keeps no checkpoint.
type CoordinatorConfig = dist.Config

// DistWorkerConfig parameterizes RunDistWorker; only Coordinator (the base
// URL) is required.
type DistWorkerConfig = dist.WorkerConfig

// DistStatus is the coordinator's progress snapshot (GET /v1/status).
type DistStatus = dist.StatusResponse

// PolicyRef is a policy's serializable wire form: a registered kind
// ("proposed", "ener", "pri", "net", "paretosearch") plus its scalar
// knobs. Distributed sweeps ship refs instead of constructors.
type PolicyRef = experiment.PolicyRef

// Registered PolicyRef kinds.
const (
	PolicyKindProposed     = dist.KindProposed
	PolicyKindEnerAware    = dist.KindEnerAware
	PolicyKindPriAware     = dist.KindPriAware
	PolicyKindNetAware     = dist.KindNetAware
	PolicyKindParetoSearch = dist.KindParetoSearch
)

// Checkpoint is a parsed set of completed sweep cells — the
// Experiment.Resume source. Both CheckpointPath files and full ResultSet JSON exports load.
type Checkpoint = experiment.Checkpoint

// NewCoordinator binds the coordinator's listener and starts serving the
// worker protocol; its URL is valid immediately. Grids are then served
// through an Experiment or Frontier whose Coordinator field is set (one
// grid at a time — multi-wave drivers reuse one coordinator and its
// connected workers across waves).
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	return dist.NewCoordinator(cfg)
}

// RunDistWorker connects to a coordinator and evaluates leased grid cells
// until the coordinator closes or ctx is cancelled. It is the library form
// of the geovmp-worker binary.
func RunDistWorker(ctx context.Context, cfg DistWorkerConfig) error {
	return dist.RunWorker(ctx, cfg)
}

// NewRefPolicySpec builds a distribution-ready PolicySpec from a wire-form
// ref: the local constructor is resolved from the same registry workers
// use, so the in-process and distributed paths provably construct the same
// policy. Use it for knobbed variants (alpha sweeps, ablations) that must
// travel; StandardPolicies already carries refs.
func NewRefPolicySpec(name string, ref PolicyRef) (PolicySpec, error) {
	return dist.PolicySpecFromRef(name, ref)
}

// builtinPolicySpec is NewRefPolicySpec for the registry's own kinds, which
// always resolve.
func builtinPolicySpec(name string, ref PolicyRef) PolicySpec {
	ps, err := dist.PolicySpecFromRef(name, ref)
	if err != nil {
		panic(err)
	}
	return ps
}

// LoadCheckpoint reads a checkpoint (or any ResultSet JSON export) for
// Experiment.Resume. Rows that recorded an error are dropped — failed cells
// are recomputed, not resumed.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return experiment.LoadCheckpoint(path)
}
