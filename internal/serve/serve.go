// Package serve turns the batch placement engine into a long-running
// controller: VMs arrive and depart as a stream, and every arrival is
// answered with a (dc, server) decision within a configurable latency SLO.
//
// The daemon keeps the paper's correlation state *incrementally*: arrivals
// and departures amend the ProfileSet/DataMatrix in place (O(profile +
// degree) per event: a departure touches only the volume rows its data
// adjacency names, and its packer rebuilds the server's aggregate once, at
// its next read, however many departures left it), the arriving VM's
// embedding position is refined locally against the frozen layout
// (internal/embed.RefineOne), and a background reconciler periodically
// re-runs the full global embedding and atomically swaps the refreshed
// layout in — so the hot path never recompiles the world. Per-VM state
// (positions, residency, adjacency) sits in dense tables indexed by the
// compact VM id.
//
// An observation (the per-slot telemetry refresh) re-adds every observed
// profile and rebuilds every server's aggregate, but pays for the volume
// matrix and the adjacency only where they moved: the matrix is refilled in
// place (correlation.DataMatrix.Refill), which reports the senders whose
// rows moved and the receivers whose senders did, and only those ids'
// adjacency lists and those of the ids arrivals linked since the last
// observation are recomputed. Each structure ends bit for bit as a rebuild
// from scratch would leave it. serve_observe_lists_total and
// serve_tracker_rebuilds_total on /metrics count the lists recomputed and
// the departures' deferred server rebuilds. Profiles with a negative, NaN
// or infinite sample are refused (ErrBadProfile), as the wire refuses
// them, because the deferred rebuilds rely on non-negative samples.
//
// Each decision runs three phases, in the scheduler-framework shape:
//
//   - fit: bounded combined-peak probe over each DC's incremental packer
//     (internal/alloc.Tracker) — the capacity/constraint gate;
//   - score: correlation against the candidate server's residents (the
//     exact peak-coincidence kernel's math), cross-DC traffic to the VM's
//     data peers, embedding locality, and an energy term from tariffs and
//     fleet load, blended by the paper's alpha;
//   - reserve: commit the chosen seat. All three phases run at the
//     decision's turn in the admission sequence, under the write lock,
//     once every earlier operation has committed.
//
// Commits are totally ordered by arrival sequence number, so the decision
// stream is a pure function of the event log: the same log replayed at any
// Parallelism yields bit-identical placements (the determinism test holds
// the daemon to that). Each background reconciliation lands at the next
// trigger, ReconcileEvery operations after its own; a turn that reaches a
// reconciliation still running lends its core to the reconciler's sharded
// passes while it waits (see reconcile.go).
package serve

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geovmp/internal/dc"
	"geovmp/internal/metrics"
	"geovmp/internal/network"
	"geovmp/internal/sim"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// VM is one arrival: the VM's identity, its last-interval utilization
// profile (resampled to Options.Samples when the length differs), its
// declared steady traffic with already-placed peers, and its migration
// image size.
type VM struct {
	ID      int
	Profile []float64
	Flows   []Flow
	Image   units.DataSize
}

// Flow declares steady directed traffic between an arriving VM and a peer.
type Flow struct {
	Peer     int
	ToPeer   units.DataSize // volume per slot the VM sends to the peer
	FromPeer units.DataSize // volume per slot the peer sends to the VM
}

// Observation is the periodic telemetry refresh a live controller receives
// each slot: current per-VM utilization profiles and the realized inter-VM
// volume matrix. It replaces the declared-flow picture wholesale, exactly
// as the batch simulator feeds its per-slot controllers.
type Observation struct {
	Slot    timeutil.Slot
	VMs     []VMProfile
	Volumes []VolumeObs
}

// VMProfile is one VM's observed utilization profile.
type VMProfile struct {
	ID      int
	Profile []float64
}

// VolumeObs is one observed directed inter-VM volume.
type VolumeObs struct {
	From, To int
	Vol      units.DataSize
}

// Decision is the daemon's answer to one arrival.
type Decision struct {
	ID         int
	DC         int
	Server     int
	Overflowed bool          // placed past nominal capacity
	Seq        uint64        // position in the admission sequence
	Latency    time.Duration // submit-to-commit decision latency
}

// Options configures a Daemon. Fleet and Topo are required; everything else
// defaults sensibly. The scoring and embedding tuning is the constants below.
type Options struct {
	Fleet dc.Fleet
	Topo  *network.Topology
	// Samples is the per-slot profile length (default 12, the simulator's).
	Samples int
	// Alpha is the paper's energy/performance blend, in (0, 1]; zero, NaN
	// and out-of-range values select the default 0.9.
	Alpha float64
	// SLO is the decision latency objective, reported at /healthz and in
	// benchmarks (default 20ms). It does not gate decisions.
	SLO time.Duration
	// QueueCap bounds concurrently admitted requests on the HTTP path;
	// excess requests are refused with 429 + Retry-After (default 256).
	QueueCap int
	// ReconcileEvery launches a background full re-embedding every that
	// many sequenced operations (default 512; <0 disables). The result
	// lands atomically at the next trigger, before that turn's operation —
	// a fixed landing point in the sequence, so reconciliation cannot
	// perturb determinism.
	ReconcileEvery int
	// Workers are goroutines lent to the background reconciler's sharded
	// passes (default 1; decisions themselves are never sharded). A
	// landing turn that finds the reconciler still running lends one more.
	Workers int
	// Seed keys every deterministic scatter and sampling choice.
	Seed uint64
	// RequestTimeout bounds each HTTP request's wall-clock handling time;
	// a request that misses its deadline is answered 503 + Retry-After and
	// counted on serve_deadline_total (default 5s; negative disables).
	RequestTimeout time.Duration
	// Board receives operational metrics (a fresh board when nil).
	Board *metrics.Board
}

// The daemon's fixed tuning, shared by every deployment.
const (
	// energyWeight scales the tariff/load score term against the
	// alpha-blended locality and correlation terms.
	energyWeight = 0.25
	// refineIters is the per-arrival local embedding refinement budget
	// (embed.RefineOne's iterations).
	refineIters = 4
	// reconcileIters is the reconciler's embedding iteration budget.
	reconcileIters = 12
)

func (o *Options) applyDefaults() {
	if o.Samples <= 0 {
		o.Samples = sim.DefaultProfileSamples
	}
	if !(o.Alpha > 0 && o.Alpha <= 1) {
		o.Alpha = 0.9
	}
	if o.SLO <= 0 {
		o.SLO = 20 * time.Millisecond
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	switch {
	case o.ReconcileEvery == 0:
		o.ReconcileEvery = 512
	case o.ReconcileEvery < 0:
		o.ReconcileEvery = 0
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	switch {
	case o.RequestTimeout == 0:
		o.RequestTimeout = 5 * time.Second
	case o.RequestTimeout < 0:
		o.RequestTimeout = 0
	}
	if o.Board == nil {
		o.Board = metrics.NewBoard()
	}
}

// Daemon errors.
var (
	ErrDraining      = errors.New("serve: daemon is draining")
	ErrQueueFull     = errors.New("serve: admission queue full")
	ErrAlreadyPlaced = errors.New("serve: vm already placed")
	ErrBadID         = errors.New("serve: negative vm id")
	ErrBadProfile    = errors.New("serve: profile sample negative, NaN or infinite")
)

// Daemon is the online placement service. Create with New, feed with
// Place/Depart/Observe (or Replay), stop with Drain.
type Daemon struct {
	opt Options

	mu sync.RWMutex // guards st
	st *state

	seqMu sync.Mutex
	cond  *sync.Cond
	next  uint64 // next sequence number to hand out
	done  uint64 // sequence numbers below this have committed

	inflight atomic.Int64
	draining atomic.Bool

	recon *reconcileJob // pending background re-embedding; guarded by mu

	// rebuilt is the packers' rebuild total last published to
	// mRebuilds; guarded by mu.
	rebuilt int

	mPlacements, mDepartures, mOverflows   *metrics.Counter
	mObservations, mReconciles, mReconLate *metrics.Counter
	mRejections, mFaults, mDeadlines       *metrics.Counter
	mRebuilds, mObserveLists               *metrics.Counter
	mQueue                                 *metrics.Gauge
	mLat, mReconWait                       *metrics.LatencyHist
}

// New validates opt and returns a ready daemon.
func New(opt Options) (*Daemon, error) {
	if len(opt.Fleet) == 0 {
		return nil, errors.New("serve: empty fleet")
	}
	if opt.Topo == nil {
		return nil, errors.New("serve: nil topology")
	}
	opt.applyDefaults()
	d := &Daemon{opt: opt}
	d.st = newState(&d.opt)
	d.cond = sync.NewCond(&d.seqMu)
	b := opt.Board
	d.mPlacements = b.Counter("serve_placements_total")
	d.mDepartures = b.Counter("serve_departures_total")
	d.mOverflows = b.Counter("serve_overflows_total")
	d.mObservations = b.Counter("serve_observations_total")
	d.mReconciles = b.Counter("serve_reconciles_total")
	d.mReconLate = b.Counter("serve_reconcile_late_total")
	d.mRejections = b.Counter("serve_rejections_total")
	d.mFaults = b.Counter("serve_faults_total")
	d.mDeadlines = b.Counter("serve_deadline_total")
	d.mRebuilds = b.Counter("serve_tracker_rebuilds_total")
	d.mObserveLists = b.Counter("serve_observe_lists_total")
	d.mQueue = b.Gauge("serve_queue_depth")
	d.mLat = b.Hist("serve_decision_latency")
	d.mReconWait = b.Hist("serve_reconcile_wait")
	return d, nil
}

// Options returns the daemon's resolved configuration.
func (d *Daemon) Options() Options { return d.opt }

// Board returns the daemon's metrics board.
func (d *Daemon) Board() *metrics.Board { return d.opt.Board }

// --- admission sequencing ---

// reserve hands out n consecutive sequence numbers, in commit order.
func (d *Daemon) reserve(n int) uint64 {
	d.seqMu.Lock()
	s := d.next
	d.next += uint64(n)
	d.seqMu.Unlock()
	return s
}

// turn waits for seq's turn in the admission sequence and runs op there,
// under the write lock: any reconciliation due at seq lands first, and one
// due to start at seq is triggered after. Every sequenced operation
// commits through it.
func (d *Daemon) turn(seq uint64, op func()) {
	d.seqMu.Lock()
	for d.done != seq {
		d.cond.Wait()
	}
	d.seqMu.Unlock()

	d.mu.Lock()
	d.landDue(seq)
	op()
	d.maybeTrigger(seq)
	if n := d.st.rebuilds(); n != d.rebuilt {
		d.mRebuilds.Add(int64(n - d.rebuilt))
		d.rebuilt = n
	}
	d.mu.Unlock()

	d.seqMu.Lock()
	d.done = seq + 1
	d.cond.Broadcast()
	d.seqMu.Unlock()
}

// admit implements admission control: ErrDraining once Drain has begun,
// otherwise one slot of the bounded queue per in-flight request, refused
// with ErrQueueFull (and counted on serve_rejections_total) when full.
func (d *Daemon) admit() error {
	if d.draining.Load() {
		return ErrDraining
	}
	for {
		n := d.inflight.Load()
		if n >= int64(d.opt.QueueCap) {
			d.mRejections.Inc()
			return ErrQueueFull
		}
		if d.inflight.CompareAndSwap(n, n+1) {
			d.mQueue.Set(n + 1)
			return nil
		}
	}
}

func (d *Daemon) release() {
	d.mQueue.Set(d.inflight.Add(-1))
}

// --- public operations ---

// Place admits one arrival and returns its placement. It blocks until the
// decision's turn in the admission sequence commits. ErrQueueFull means the
// bounded queue is saturated — back off and retry; ErrDraining means the
// daemon no longer admits work; ErrBadID refuses a negative id and
// ErrBadProfile a profile with a negative, NaN or infinite sample.
func (d *Daemon) Place(vm VM) (Decision, error) {
	if err := d.admit(); err != nil {
		return Decision{}, err
	}
	defer d.release()
	return d.placeAt(d.reserve(1), vm)
}

// Depart removes a VM from the fleet, reporting whether it was resident.
func (d *Daemon) Depart(id int) (bool, error) {
	if err := d.admit(); err != nil {
		return false, err
	}
	defer d.release()
	return d.departAt(d.reserve(1), id), nil
}

// Observe applies one telemetry refresh (profiles, volumes, slot clock).
// ErrBadProfile refuses the whole refresh when any profile has a negative,
// NaN or infinite sample.
func (d *Daemon) Observe(o Observation) error {
	if d.draining.Load() {
		return ErrDraining
	}
	return d.observeAt(d.reserve(1), o)
}

// Fault flips one DC's availability in the admission sequence: a down DC
// stops accepting placements and its residents are re-seated onto healthy
// DCs (ascending id, least-loaded first) within the event's turn, so the
// decision stream stays a pure function of the event log. It returns the
// re-placed VM ids. Flipping a DC to its current state is a no-op.
func (d *Daemon) Fault(dcI int, down bool) ([]int, error) {
	if err := d.admit(); err != nil {
		return nil, err
	}
	defer d.release()
	return d.faultAt(d.reserve(1), dcI, down), nil
}

// Drain stops admitting new operations and blocks until every in-flight
// operation has committed and the pending background reconciliation, if
// any, has finished; its result is dropped, as no later operation could
// land it. Safe to call more than once.
func (d *Daemon) Drain() {
	d.draining.Store(true)
	d.seqMu.Lock()
	for d.done != d.next {
		d.cond.Wait()
	}
	d.seqMu.Unlock()
	d.mu.Lock()
	if job := d.recon; job != nil {
		job.workers.Release(1) // Drain would only wait: lend its core
		<-job.ch
		d.recon = nil
	}
	d.mu.Unlock()
}

// --- sequenced internals ---

func (d *Daemon) placeAt(seq uint64, vm VM) (Decision, error) {
	start := time.Now()
	// Fit, score and commit at this decision's turn: every earlier
	// operation has committed and no later one can, so the decision is the
	// one serial processing in sequence order produces.
	var (
		dec Decision
		err error
	)
	d.turn(seq, func() {
		var cand candidate
		if cand, err = d.st.prepare(&vm); err == nil {
			dec = d.st.commit(&vm, cand)
			dec.Seq = seq
		}
	})
	if err != nil {
		return Decision{}, err
	}
	dec.Latency = time.Since(start)
	d.mPlacements.Inc()
	if dec.Overflowed {
		d.mOverflows.Inc()
	}
	d.mLat.Observe(dec.Latency)
	return dec, nil
}

func (d *Daemon) departAt(seq uint64, id int) bool {
	var ok bool
	d.turn(seq, func() { ok = d.st.depart(id) })
	if ok {
		d.mDepartures.Inc()
	}
	return ok
}

func (d *Daemon) faultAt(seq uint64, dcI int, down bool) []int {
	var moved []int
	d.turn(seq, func() { moved = d.st.setFault(dcI, down) })
	d.mFaults.Inc()
	return moved
}

func (d *Daemon) observeAt(seq uint64, o Observation) error {
	var err error
	for _, v := range o.VMs {
		if !finiteNonNegative(v.Profile...) {
			err = ErrBadProfile
			break
		}
	}
	var lists int
	d.turn(seq, func() {
		if err == nil {
			lists = d.st.observe(&o)
		}
	})
	if err != nil {
		return err
	}
	d.mObservations.Inc()
	d.mObserveLists.Add(int64(lists))
	return nil
}

// --- read-only accessors ---

// Resident reports whether id is currently placed.
func (d *Daemon) Resident(id int) bool {
	return d.DCOf(id) >= 0
}

// DCOf returns id's DC, or -1 when not resident.
func (d *Daemon) DCOf(id int) int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.st.dcAt(id)
}

// Residents returns the resident ids, ascending.
func (d *Daemon) Residents() []int {
	d.mu.RLock()
	ids := append([]int(nil), d.st.active...)
	d.mu.RUnlock()
	slices.Sort(ids)
	return ids
}

// NumResidents returns the resident VM count.
func (d *Daemon) NumResidents() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.st.active)
}
