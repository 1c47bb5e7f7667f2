package serve

import (
	"slices"
	"time"

	"geovmp/internal/core"
	"geovmp/internal/correlation"
	"geovmp/internal/embed"
	"geovmp/internal/par"
	"geovmp/internal/units"
)

// The reconciler restores full-fidelity geometry: per-arrival refinement
// seats each VM well against a frozen layout, but only a global embedding
// re-balances everyone at once. Every ReconcileEvery sequenced operations
// the daemon snapshots the correlation state under the lock, re-runs the
// batch global embedding in the background for reconcileIters iterations,
// and atomically swaps the result in at a *fixed landing point* in the
// operation sequence (trigger + reconcileLag): decisions between trigger
// and landing use the old layout, decisions after use the new one, at any
// parallelism and any background duration. If the embedding is still
// running when the landing operation arrives, that operation cannot commit
// until it finishes, and no other operation can either; rather than idle,
// the landing turn lends its core to the job, whose remaining sharded
// passes then run on one more goroutine. Shard boundaries are fixed, so the
// positions are bit-identical however many goroutines ran them. The SLO
// bound holds for the steady state, not the (rare, ~per-512-ops) landing
// turn, whose stall serve_reconcile_wait records.

// reconcileJob is one in-flight background re-embedding.
type reconcileJob struct {
	landSeq uint64
	ids     []int              // the snapshot's point order
	workers *par.Budget        // extra goroutines the job's sharded passes may take
	ch      chan []embed.Point // the re-embedded positions, in that order
}

// maybeTrigger launches a background reconciliation when the operation
// sequence crosses a ReconcileEvery boundary. Caller holds d.mu; the
// trigger condition depends only on seq and whether a job is pending —
// both pure functions of the sequence — so triggering is deterministic.
func (d *Daemon) maybeTrigger(seq uint64) {
	every := d.opt.ReconcileEvery
	if every == 0 || d.recon != nil || seq == 0 || seq%uint64(every) != 0 {
		return
	}
	if len(d.st.active) < 2 {
		return
	}
	snap := d.st.snapshot()
	job := &reconcileJob{
		landSeq: seq + reconcileLag,
		ids:     snap.ids,
		workers: par.NewBudget(d.opt.Workers - 1),
		ch:      make(chan []embed.Point, 1),
	}
	d.recon = job
	opt := &d.opt
	go func() { job.ch <- snap.run(opt, job.workers) }()
}

// landDue swaps in a finished reconciliation at the first operation whose
// sequence number reaches the landing point, lending the caller's core to
// the job while it is still running. Caller holds d.mu.
func (d *Daemon) landDue(seq uint64) {
	job := d.recon
	if job == nil || seq < job.landSeq {
		return
	}
	start := time.Now()
	var pos []embed.Point
	select {
	case pos = <-job.ch:
	default:
		job.workers.Release(1)
		pos = <-job.ch
	}
	d.mReconWait.Observe(time.Since(start))
	d.st.adoptPositions(job.ids, pos)
	d.recon = nil
	d.mReconciles.Inc()
}

// reconSnap is an isolated copy of everything the global embedding reads,
// taken under the write lock so the background run shares nothing with the
// live state.
type reconSnap struct {
	ids  []int
	init []embed.Point // init[k] is ids[k]'s live position
	ps   *correlation.ProfileSet
	dm   *correlation.DataMatrix
	ref  units.DataSize
}

func (s *state) snapshot() *reconSnap {
	ids := append([]int(nil), s.active...)
	slices.Sort(ids)
	ps := correlation.NewProfileSet(s.opt.Samples)
	for _, id := range ids {
		ps.Add(id, s.ps.Profile(id)) // rows are copied
	}
	dm := s.dm.Clone()
	init := make([]embed.Point, len(ids))
	for k, id := range ids {
		init[k] = s.pos[id]
	}
	return &reconSnap{ids: ids, init: init, ps: ps, dm: dm, ref: s.ref}
}

// run executes the batch global embedding over the snapshot — the same
// field and tuning (embed's constants) the batch controller uses, at the
// reconciler's budget reconcileIters, warm-started from the live layout —
// with its sharded passes taking extra goroutines from workers.
func (r *reconSnap) run(opt *Options, workers *par.Budget) []embed.Point {
	f := core.NewField(opt.Alpha, r.ps, r.dm, r.ref)
	cfg := embed.Config{Seed: opt.Seed, MaxIters: reconcileIters, Workers: workers}
	return embed.Run(r.ids, r.init, nil, f, cfg).Pos
}

// adoptPositions merges a reconciled layout: VMs still resident take their
// refreshed positions (arrivals since the snapshot keep their refined
// seats), and the per-DC centroid accumulators are rebuilt in active order
// so the sums stay bit-deterministic.
func (s *state) adoptPositions(ids []int, pos []embed.Point) {
	for k, id := range ids {
		if s.dcAt(id) >= 0 {
			s.pos[id] = pos[k]
		}
	}
	for i := range s.posSum {
		s.posSum[i] = embed.Point{}
		s.resCount[i] = 0
	}
	for _, id := range s.active {
		p := s.pos[id]
		dcI := s.dcOf[id]
		s.posSum[dcI].X += p.X
		s.posSum[dcI].Y += p.Y
		s.resCount[dcI]++
	}
}
