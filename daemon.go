// Serving mode: the online placement daemon behind cmd/geovmpd.
//
// Everything else in this package answers questions about a *finished*
// horizon — build a scenario, run a policy over every slot, read the
// results. The Daemon turns the same fit/score/reserve pipeline into a
// long-running service: VMs arrive and depart one at a time, each Place
// call answers "(dc, server)" within a latency SLO, and the paper's
// correlation state (peak profiles, the inter-VM volume matrix, the
// force-directed plane) is amended incrementally per event instead of
// being recompiled from the world. A background reconciler periodically
// re-runs the full global embedding and swaps it in at a fixed point in
// the admission sequence, so the decision stream stays a pure function
// of the event log at any request parallelism.
//
// Minimal lifecycle:
//
//	sc, _ := geovmp.NewScenario(spec)
//	d, _ := geovmp.NewDaemon(sc, geovmp.DaemonOptions{})
//	dec, _ := d.Place(geovmp.VM{ID: 1, Profile: profile})
//	...
//	d.Drain()
//
// d.Handler() exposes the same operations over HTTP/JSON (POST
// /v1/place, /v1/depart, /v1/observe, /v1/drain; GET /metrics,
// /healthz) with bounded-queue admission control: excess load is
// refused with 429 + Retry-After rather than queued without bound.
package geovmp

import (
	"geovmp/internal/fault"
	"geovmp/internal/metrics"
	"geovmp/internal/serve"
)

// Daemon is the online placement service: streaming arrivals, incremental
// correlation state, and a fit/score/reserve decision path. See
// internal/serve for the mechanics.
type Daemon = serve.Daemon

// DaemonOptions configures a Daemon. Fleet and Topo are required unless
// NewDaemon fills them from a scenario; zero values select the documented
// defaults. That includes Alpha: 0 (like NaN or a value outside (0, 1])
// serves the default 0.9, so an alpha of exactly 0 cannot be requested.
// The scoring and embedding tuning is fixed, not an option.
type DaemonOptions = serve.Options

// VM is one streaming arrival: identity, utilization profile, declared
// flows to already-placed peers, and migration image size.
type VM = serve.VM

// Flow declares steady directed traffic between an arriving VM and a peer.
type Flow = serve.Flow

// Observation is one slot's telemetry refresh: observed per-VM profiles
// and the realized inter-VM volume matrix.
type Observation = serve.Observation

// VMProfile is one VM's observed utilization profile inside an Observation.
type VMProfile = serve.VMProfile

// VolumeObs is one observed directed inter-VM volume inside an Observation.
type VolumeObs = serve.VolumeObs

// Decision is the daemon's answer to one arrival.
type Decision = serve.Decision

// Event is one replayable daemon operation; EventsFromWorkload derives a
// log from any Workload, and Daemon.Replay feeds one back at a chosen
// parallelism.
type Event = serve.Event

// EventKind discriminates replay events.
type EventKind = serve.EventKind

// Replay event kinds.
const (
	EvPlace   = serve.EvPlace
	EvDepart  = serve.EvDepart
	EvObserve = serve.EvObserve
	EvFault   = serve.EvFault
)

// FaultEvent is one DC availability flip in the daemon's sequenced event
// log: Down takes the DC out of admission and re-seats its residents at the
// event's turn; Up restores it.
type FaultEvent = serve.FaultEvent

// MetricsBoard is the daemon's snapshotable counter/gauge/histogram set,
// exposed at /metrics.
type MetricsBoard = metrics.Board

// Daemon admission errors. The first three surface as HTTP 503 / 429 / 409
// respectively; ErrBadID and ErrBadProfile reach only Go callers, since the
// HTTP API refuses a negative id or sample with 400 before admission.
var (
	ErrDraining      = serve.ErrDraining
	ErrQueueFull     = serve.ErrQueueFull
	ErrAlreadyPlaced = serve.ErrAlreadyPlaced
	ErrBadID         = serve.ErrBadID
	ErrBadProfile    = serve.ErrBadProfile
)

// NewDaemon builds a serving daemon for a compiled scenario's fleet and
// topology. Fields already set in opt win; the scenario only fills the
// blanks (fleet, topology, profile length, seed), so a caller can serve
// a preset with `NewDaemon(sc, DaemonOptions{})` or override any knob.
func NewDaemon(sc *Scenario, opt DaemonOptions) (*Daemon, error) {
	if opt.Fleet == nil {
		opt.Fleet = sc.Fleet
	}
	if opt.Topo == nil {
		opt.Topo = sc.Topo
	}
	if opt.Samples == 0 {
		opt.Samples = sc.ProfileSamples
	}
	if opt.Seed == 0 {
		opt.Seed = sc.Seed
	}
	return serve.New(opt)
}

// EventsFromWorkload converts a workload's first `horizon` of activity
// into a replayable event log: per slot one Observation, then the slot's
// departures, then its arrivals — the same order the batch simulator
// feeds its controllers.
func EventsFromWorkload(w Workload, horizon Horizon, samples int) []Event {
	return serve.EventsFromTrace(w, horizon.Slots, samples)
}

// ServePolicy adapts a Daemon into a batch-simulator Policy, so the same
// serving decision path can be scored by sim.Run against the offline
// controllers (the drift check in examples/serve).
func ServePolicy(d *Daemon) Policy { return serve.NewSimPolicy(d) }

// EventsWithFaults threads a scenario's compiled fault schedule into an
// event log: every whole-DC outage transition lands right after its slot's
// observation, so replaying the merged log exercises the daemon's forced
// re-placement exactly when the batch simulator would evacuate.
func EventsWithFaults(events []Event, sc *Scenario, horizon Horizon) []Event {
	if !sc.Faults.Enabled() {
		return events
	}
	sched := fault.Compile(sc.Faults, len(sc.Fleet), int(horizon.Slots), sc.Seed)
	return serve.InsertFaults(events, sched.DCTransitions())
}
