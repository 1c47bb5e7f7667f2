package serve

import (
	"cmp"
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
// operation sequence: the job lands at the next trigger, before that
// turn's operation, and the next job launches after it. Decisions between
// trigger and landing use the old layout, decisions after use the new one,
// at any parallelism and any background duration, and the job has a whole
// window of ReconcileEvery turns to run on a spare core. If the embedding
// is still running when the landing operation arrives, that operation
// cannot commit until it finishes, and no other operation can either;
// rather than idle, the landing turn lends its core to the job, whose
// remaining sharded passes then run on one more goroutine. Shard
// boundaries are fixed, so the positions are bit-identical however many
// goroutines ran them. The SLO bound holds for the steady state, not a
// landing turn that finds its job still running: serve_reconcile_wait
// records every landing's stall, and serve_reconcile_late_total counts the
// landings that had to wait.

// reconcileJob is one in-flight background re-embedding.
type reconcileJob struct {
	landSeq uint64
	snap    *reconSnap         // the job fills snap.ids: read them only after ch
	workers *par.Budget        // extra goroutines the job's sharded passes may take
	ch      chan []embed.Point // the re-embedded positions, in snap.ids order
}

// maybeTrigger launches a background reconciliation when the operation
// sequence crosses a ReconcileEvery boundary, to land at the next one.
// Caller holds d.mu; the trigger condition depends only on seq and whether
// a job is pending — both pure functions of the sequence — so triggering
// is deterministic.
func (d *Daemon) maybeTrigger(seq uint64) {
	every := d.opt.ReconcileEvery
	if every == 0 || d.recon != nil || seq == 0 || seq%uint64(every) != 0 {
		return
	}
	if len(d.st.active) < 2 {
		return
	}
	job := &reconcileJob{
		landSeq: seq + uint64(every),
		snap:    d.st.snapshot(),
		workers: par.NewBudget(d.opt.Workers - 1),
		ch:      make(chan []embed.Point, 1),
	}
	d.recon = job
	opt := &d.opt
	go func() { job.ch <- job.snap.run(opt, job.workers) }()
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
		d.mReconLate.Inc()
		job.workers.Release(1)
		pos = <-job.ch
	}
	d.mReconWait.Observe(time.Since(start))
	d.st.adoptPositions(job.snap.ids, pos)
	d.recon = nil
	d.mReconciles.Inc()
}

// reconSnap is an isolated copy of everything the global embedding reads,
// taken under the write lock so the background run shares nothing with the
// live state. seats come in active order; run sorts them and fills ids.
type reconSnap struct {
	seats []seat
	ids   []int // the sorted seats' ids, the embedding's point order
	ps    *correlation.ProfileSet
	dm    *correlation.DataMatrix
	ref   units.DataSize
}

// seat is one resident's id and live position.
type seat struct {
	id int
	p  embed.Point
}

func (s *state) snapshot() *reconSnap {
	seats := make([]seat, len(s.active))
	for k, id := range s.active {
		seats[k] = seat{id, s.pos[id]}
	}
	return &reconSnap{seats: seats, ps: s.ps.Clone(), dm: s.dm.Clone(), ref: s.ref}
}

// run sorts the snapshot's seats by id and executes the batch global
// embedding over them — the same field and tuning (embed's constants) the
// batch controller uses, at the reconciler's budget reconcileIters,
// warm-started from the live layout — with its sharded passes taking extra
// goroutines from workers.
func (r *reconSnap) run(opt *Options, workers *par.Budget) []embed.Point {
	slices.SortFunc(r.seats, func(a, b seat) int { return cmp.Compare(a.id, b.id) })
	r.ids = make([]int, len(r.seats))
	init := make([]embed.Point, len(r.seats))
	for k, st := range r.seats {
		r.ids[k], init[k] = st.id, st.p
	}
	f := core.NewField(opt.Alpha, r.ps, r.dm, r.ref)
	cfg := embed.Config{Seed: opt.Seed, MaxIters: reconcileIters, Workers: workers}
	return embed.Run(r.ids, init, nil, f, cfg).Pos
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
