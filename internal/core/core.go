// Package core implements the paper's primary contribution: the two-phase
// multi-objective VM placement controller for green geo-distributed data
// centers (Sect. IV).
//
// Global phase, once per slot:
//
//  1. Force-directed embedding (internal/embed): VMs become 2D points;
//     bidirectional data correlation attracts, CPU-load correlation repels,
//     blended by the energy/performance weight alpha (Eq. 5). Positions
//     persist across slots ("the final location of all the VMs becomes the
//     initial position for the next time slot").
//  2. Capacity caps: each DC receives an energy budget (Joules) for the
//     coming slot from its usable battery energy, its renewable forecast,
//     and a grid allowance that favors cheap-tariff DCs; the fleet demand
//     is predicted with a last-value predictor on the previous slot's
//     facility energy. Caps are clamped to each DC's physical ceiling and
//     scaled to cover predicted demand.
//  3. Modified k-means (internal/cluster) groups the embedded points into
//     one capacity-capped cluster per DC, centroids seeded from the
//     previous slot.
//  4. Migration revision (internal/migrate, Algorithm 2) converts the
//     clustering into executable migrations under the per-link latency
//     budget; everything else stays put.
//
// Local phase, per DC: correlation-aware allocation with DVFS
// (internal/alloc), shared with the Ener-aware baseline.
package core

import (
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"geovmp/internal/alloc"
	"geovmp/internal/cluster"
	"geovmp/internal/correlation"
	"geovmp/internal/dc"
	"geovmp/internal/embed"
	"geovmp/internal/migrate"
	"geovmp/internal/policy"
	"geovmp/internal/timeutil"
	"geovmp/internal/units"
)

// Compile-time check: the controller participates in the rolling-horizon
// engine's epoch protocol.
var _ policy.EpochAware = (*Controller)(nil)

// Controller is the proposed placement method. It carries per-slot state
// (point positions, centroids) and must be used for one simulation at a
// time.
type Controller struct {
	// Alpha is the energy-performance trade-off weight of Eq. 5:
	// 1 weighs only data correlation (performance), 0 only CPU-load
	// correlation (energy). Default 0.9: the energy objective is carried
	// mostly by the correlation-aware local allocator, so the global
	// geometry can afford to favor data locality (the ablation bench
	// sweeps the full range).
	Alpha float64
	// NoEmbedding disables the force-directed phase (ablation A2): points
	// keep inherited/scattered positions, so k-means sees no correlation
	// geometry.
	NoEmbedding bool
	// Embed tunes the force-directed layout. The rest of the method's
	// tuning is fixed: demandHeadroom, capSmooth, kmeansIters and stick.
	Embed embed.Config

	// ids and pos are the last slot's layout: pos[k] is the final position
	// of ids[k], ids ascending.
	ids       []int
	pos       []embed.Point
	centroids []embed.Point
	prevCaps  []float64
	// reoptimize is armed by StartEpoch and consumed by the next Place: the
	// boundary slot re-runs the embedding with a warm-restart iteration
	// boost and rebuilds the capacity caps without the previous epoch's EMA
	// history, so the layout and the energy budgets re-converge to the new
	// workload regime instead of drifting toward it one damped slot at a
	// time.
	reoptimize bool

	ahead      *aheadJob // the next slot's embedding, started by the last Place
	aheadSlots int       // slots that took their embedding from a run-ahead

	// LastEmbedIters and LastEmbedCost record the embedding of the slot
	// the most recent Place decided (diagnostics).
	LastEmbedIters int
	LastEmbedCost  []float64
	// EmbedNS accumulates wall time (ns) spent inside embed.Run across the
	// simulation; BoundaryEmbedNS the subset spent on epoch-boundary
	// re-optimization slots. Benchmarks read these to isolate the
	// embedding's share of a slot; a run-ahead counts its full wall time,
	// mostly overlapped with the previous slot's other phases. All four
	// are written only by Place, on its caller's goroutine.
	EmbedNS         int64
	BoundaryEmbedNS int64
}

// New returns a Controller with the given alpha (0.9 when NaN or outside
// [0, 1]) and deterministic behavior keyed by seed.
func New(alpha float64, seed uint64) *Controller {
	if !(alpha >= 0 && alpha <= 1) {
		alpha = 0.9
	}
	return &Controller{
		Alpha: alpha,
		Embed: embed.Config{Seed: seed, MaxIters: 20},
	}
}

// Name implements policy.Policy.
func (c *Controller) Name() string { return "Proposed" }

// reoptBoost multiplies the embedding iteration budget on an epoch-boundary
// slot: enough extra sweeps for the warm-started layout to re-converge to a
// shifted regime, well short of the 5x cold-start budget.
const reoptBoost = 3

// StartEpoch implements policy.EpochAware: the next Place re-optimizes for
// the new epoch, warm-started from the carried positions and centroids.
func (c *Controller) StartEpoch(epoch int, start timeutil.Slot) {
	c.reoptimize = true
}

// Field adapts a slot's correlation data to the embedding's force model
// (Eq. 5): id-addressed as an embed.Field, and index-addressed as an
// embed.SplitField once bound to a point order.
type Field struct {
	alpha float64
	ps    *correlation.ProfileSet
	vols  *correlation.DataMatrix
	ref   units.DataSize
	// fast makes Bind pack the rows' fixed-point tick counts instead of
	// their samples (see correlation.ProfileSet.Pack), so RepulsionRow's
	// peak coincidence is quantized, within correlation.FastEps per pair.
	// Force stays exact.
	fast bool
	// ids, packed, adj, on and by hold the bound point order (see Bind):
	// point i is ids[i], packed lays the kernel's profile rows out in that
	// order, adj is the data adjacency between the points and on/by
	// are each adjacency edge's blended attraction terms.
	ids    []int
	packed correlation.Packed
	adj    correlation.Adjacency
	on, by []float64
}

// Force implements embed.Field: F_t exerted on `onto` by `by`, combining
// the attraction of the data `by` sends toward `onto` with peak-coincidence
// repulsion.
func (f *Field) Force(onto, by int) float64 {
	fa := correlation.NormalizeData(f.vols.Vol(by, onto), f.ref)
	return f.alpha*fa + (1-f.alpha)*f.ps.CPUCorr(onto, by)
}

// Repulsion implements embed.Field: Force without the volume lookup. With
// no data the attraction term is an exact zero, so for such pairs the two
// agree bit for bit.
func (f *Field) Repulsion(onto, by int) float64 {
	return (1 - f.alpha) * f.ps.CPUCorr(onto, by)
}

// Bind implements embed.SplitField: it builds the data adjacency between
// the points (see bindAdjacency) and packs the slot's profile rows in point
// order — samples, or their tick counts in fast mode — so the kernel
// resolves a partner with one dense record load. The tables live as long
// as the field, one Place or reconciliation.
func (f *Field) Bind(ids []int) {
	f.bindAdjacency(ids)
	f.ps.Pack(&f.packed, ids, f.fast)
}

// bindAdjacency fixes the point order to ids and builds the adjacency and
// its blended attraction terms with one volume-matrix walk, unless the
// field is already bound to this very slice: the controller binds it
// before seeding new VMs from the adjacency, and the embedding's Bind then
// finds it built.
func (f *Field) bindAdjacency(ids []int) {
	if len(ids) > 0 && len(ids) == len(f.ids) && &ids[0] == &f.ids[0] {
		return
	}
	f.ids = ids
	f.vols.Adjacency(&f.adj, ids)
	f.on = make([]float64, len(f.adj.Peer))
	f.by = make([]float64, len(f.adj.Peer))
	for e := range f.adj.Peer {
		f.on[e] = f.alpha * correlation.NormalizeData(f.adj.In[e], f.ref)
		f.by[e] = f.alpha * correlation.NormalizeData(f.adj.Out[e], f.ref)
	}
}

// RepulsionRow implements embed.SplitField: the peak-coincidence term is
// symmetric, so the dense cache evaluates it once per unordered pair, one
// bulk profile sweep per row — and the sampled mode batches each point's
// hashed partners through it, skipping the volume-matrix probe Force pays
// on non-communicating pairs. For such pairs Force computes
// alpha*0 + (1-alpha)*fr, which equals this row's (1-alpha)*fr bit for
// bit, satisfying the SplitField decomposition contract; in fast mode the
// row's fr is the quantized one, within correlation.FastEps of Force's.
func (f *Field) RepulsionRow(i int, js []int32, dst []float64) {
	f.packed.CPUCorrInto(dst, i, js)
	w := 1 - f.alpha
	for k := range dst {
		dst[k] *= w
	}
}

// AttractionRow implements embed.SplitField over the bound adjacency: the
// data a partner sends toward point i attracts i, alpha*NormalizeData of
// it being exactly Force's attraction term.
func (f *Field) AttractionRow(i int) ([]int32, []float64, []float64) {
	lo, hi := f.adj.Row(i)
	return f.adj.Peer[lo:hi], f.on[lo:hi], f.by[lo:hi]
}

// NewField adapts one snapshot of correlation state to the embedding's
// force model (Eq. 5) — the same field the proposed controller embeds with,
// exported so the streaming daemon's incremental refinement and background
// reconciliation exert bit-identical forces to the batch global phase. ref
// is the attraction normalization volume (typically the matrix mean).
// Construction is O(1), so a serving hot path can build one per arrival:
// Run derives its index-addressed adjacency from the volume matrix at Bind,
// and RefineOne takes the arrival's peers from its caller.
func NewField(alpha float64, ps *correlation.ProfileSet, vols *correlation.DataMatrix, ref units.DataSize) *Field {
	return &Field{alpha: alpha, ps: ps, vols: vols, ref: ref}
}

// The controller's fixed tuning. capSmooth is typed so that 1-capSmooth
// rounds like float64 arithmetic (0.19999999999999996, not an exact 0.2).
const (
	// roundTripEff is the assumed battery round-trip efficiency used to
	// price stored energy in the cap computation (charged off-peak,
	// delivered later).
	roundTripEff = 0.90
	// demandHeadroom scales the predicted fleet demand when sizing caps:
	// slight over-provisioning absorbs forecast error.
	demandHeadroom = 1.10
	// capSmooth is the EMA weight on the previous slot's caps: tariff
	// windows are hours wide, so chasing them within a few slots is fast
	// enough, and the heavier weight on history damps day/night whipsaw.
	capSmooth   float64 = 0.8
	kmeansIters         = 12 // iteration cap of the capacity-capped k-means
	// stick is the k-means stay-bias: it multiplies a VM's distance to its
	// current DC's centroid, making staying cheaper than moving.
	stick = 0.7
)

// caps computes the per-DC energy capacity caps (step 2 of the global
// phase). The budget — predicted fleet demand (last-value predictor on the
// previous slot's facility energy) times a headroom margin — is covered by
// the cheapest energy in the fleet first. Each DC contributes up to three
// tiers, priced at their marginal cost:
//
//	renewable forecast  -> ~0 (lost if not consumed on site)
//	usable battery      -> the DC's off-peak tariff / round-trip efficiency
//	                       (that is what refilling it will cost)
//	grid headroom       -> the DC's current tariff
//
// Tiers are water-filled in merit order until the budget is spent, each DC
// clamped to its physical energy ceiling. Caps therefore sum to about
// demand x headroom and *steer* load toward sites whose energy is cheapest
// right now — sunny sites by day, cheap-tariff sites by night — rather than
// merely bounding it. A final EMA with the previous slot's caps damps
// day/night whipsaw so the migration budget is not burned on oscillation.
func (c *Controller) caps(in *policy.Input) []float64 {
	n := len(in.DCs)
	ceiling := make([]float64, n)
	for i := range in.DCs {
		ceiling[i] = float64(in.DCs[i].SlotEnergyCeiling(in.Slot))
	}

	// Last-value demand predictor with a headroom margin; cold start falls
	// back to the per-VM energy estimates.
	var demand float64
	for _, e := range in.LastEnergy {
		demand += float64(e)
	}
	if demand <= 0 {
		for _, e := range in.VMEnergy {
			demand += e
		}
	}
	budget := demand * demandHeadroom

	type tier struct {
		dc     int
		amount float64
		cost   float64
	}
	tiers := make([]tier, 0, 3*n)
	for i, d := range in.DCs {
		tiers = append(tiers,
			tier{dc: i, amount: float64(in.RenewForecast[i]), cost: 0},
			tier{dc: i, amount: float64(in.BatteryAvail[i]), cost: float64(d.Tariff.OffPeak) / roundTripEff},
			tier{dc: i, amount: ceiling[i], cost: float64(in.Prices[i])},
		)
	}
	sort.SliceStable(tiers, func(a, b int) bool {
		if tiers[a].cost != tiers[b].cost {
			return tiers[a].cost < tiers[b].cost
		}
		// Equal-cost tiers favor the larger source so free energy pools
		// (e.g. two sunny sites) are consumed where they are deepest.
		if tiers[a].amount != tiers[b].amount {
			return tiers[a].amount > tiers[b].amount
		}
		return tiers[a].dc < tiers[b].dc
	})

	caps := make([]float64, n)
	remaining := budget
	for _, t := range tiers {
		if remaining <= 0 {
			break
		}
		take := t.amount
		if room := ceiling[t.dc] - caps[t.dc]; take > room {
			take = room
		}
		if take > remaining {
			take = remaining
		}
		if take > 0 {
			caps[t.dc] += take
			remaining -= take
		}
	}

	// Smooth against the previous slot's caps to avoid fleet-wide churn at
	// tariff boundaries.
	if c.prevCaps != nil && len(c.prevCaps) == n {
		for i := range caps {
			caps[i] = (1-capSmooth)*caps[i] + capSmooth*c.prevCaps[i]
		}
	}
	c.prevCaps = append(c.prevCaps[:0], caps...)
	return caps
}

// Place implements policy.Policy: the full global phase. Point k of every
// step is in.ActiveVMs[k]: the adjacency, the embedding, the clustering and
// the revision all address VMs by that index.
func (c *Controller) Place(in *policy.Input) policy.Placement {
	n := len(in.DCs)

	reopt := c.reoptimize
	c.reoptimize = false
	if reopt {
		// New regime: budgets are re-derived from the boundary slot's own
		// observations rather than damped toward the old epoch's caps.
		c.prevCaps = nil
	}

	// Step 1: embedding, taken from the previous Place's run-ahead when it
	// embedded this very slot, run here otherwise.
	s := c.stepFor(in, in.Slot, in.ActiveVMs, in.Profiles, in.Volumes, reopt)
	res, ahead := c.ahead.take(&s)
	c.ahead = nil
	if ahead {
		c.aheadSlots++
	} else {
		res = s.run()
	}
	if !c.NoEmbedding {
		c.EmbedNS += res.ns
		if reopt {
			c.BoundaryEmbedNS += res.ns
		}
		c.LastEmbedIters = res.Iterations
		c.LastEmbedCost = res.Cost
	}
	ids, pos := s.ids, res.Pos
	c.ids, c.pos = ids, pos
	// The next slot's embedding reads only the trace and this layout, so
	// it can run on a spare worker while this slot goes on.
	if nx := in.Next; nx != nil && !c.NoEmbedding && in.Workers.Acquire(1) == 1 {
		job := &aheadJob{step: c.stepFor(in, nx.Slot, nx.ActiveVMs, nx.Profiles, nx.Volumes, nx.EpochStart), done: make(chan layout, 1)}
		c.ahead = job
		nx.Go(func() { res := job.step.run(); job.release(); job.done <- res })
	}

	// Step 2+3: caps and capacity-capped k-means.
	caps := c.caps(in)
	items := make([]cluster.Item, len(ids))
	loads := make([]float64, n)
	for k, id := range ids {
		cur, ok := in.Current[id]
		if !ok {
			cur = -1
		} else {
			loads[cur] += in.VMEnergy[id]
		}
		items[k] = cluster.Item{ID: id, Pos: pos[k], Load: in.VMEnergy[id], Current: cur}
	}
	kres := cluster.Run(items, cluster.Config{
		K:        n,
		Caps:     caps,
		Init:     c.centroids,
		MaxIters: kmeansIters,
		Stick:    stick,
		Workers:  in.Workers,
	})

	// Step 4: migration revision (Algorithm 2).
	cands := make([]migrate.Candidate, len(ids))
	for k, it := range items {
		target := kres.Assign[k]
		cands[k] = migrate.Candidate{
			ID:      it.ID,
			Current: it.Current,
			Target:  target,
			Load:    it.Load,
			Image:   in.Image[it.ID],
			Dist:    kres.DistToCentroid(it.Pos, target),
		}
	}
	mres := migrate.Run(cands, migrate.Config{
		NDC:        n,
		Caps:       caps,
		Loads:      loads,
		Constraint: in.Constraint,
		Net:        in.Net,
	})

	// Carry centroids of the *final* placement into the next slot.
	c.centroids = cluster.CentroidsOf(items, mres.DC, n, kres.Centroids)

	return policy.Placement{DCOf: mres.Placement, Moves: mres.Moves, Rejected: mres.Rejected}
}

// layoutStep is step 1 of the global phase for one slot, holding every
// input it reads, so it runs the same inline or one slot ahead (aheadJob);
// a run-ahead is taken for the slot whose trace inputs, epoch boundary and
// mode it embedded, the tuning being fixed for a simulation.
// Inherited positions persist (one merge walk of the last slot's and this
// slot's ascending ids); a VM seen for the first time starts at the
// centroid of its data-correlated peers that carry a position (its
// service lives there already — scattering it across the plane would
// fragment the service until enough migration budget accrues to fix it),
// falling back to the deterministic scatter. Departed VMs drop out with
// the last slot's layout. Attraction is normalized by the mean pair
// volume: volumes are heavy-tailed (log-normal), so the maximum would
// flatten typical pairs to nothing, while the mean clamps heavy hitters at
// -1 and keeps ordinary service chatter strongly attractive.
type layoutStep struct {
	slot                 timeutil.Slot
	ps                   *correlation.ProfileSet
	vols                 *correlation.DataMatrix
	alpha                float64
	cfg                  embed.Config
	fast, reopt, noEmbed bool
	ids, prevIDs         []int
	prevPos              []embed.Point
}

// layout is a layoutStep's outcome and the embedding's wall time.
type layout struct {
	embed.Result
	ns int64
}

func (c *Controller) stepFor(in *policy.Input, sl timeutil.Slot, ids []int, ps *correlation.ProfileSet, vols *correlation.DataMatrix, reopt bool) layoutStep {
	cfg := c.Embed
	cfg.Workers = in.Workers
	cfg.FastMath = cfg.FastMath || in.FastMath
	return layoutStep{slot: sl, ps: ps, vols: vols, alpha: c.Alpha, cfg: cfg, fast: in.FastMath, reopt: reopt, noEmbed: c.NoEmbedding,
		ids: append(make([]int, 0, len(ids)), ids...), prevIDs: c.ids, prevPos: c.pos}
}

func (s *layoutStep) run() layout {
	ids := s.ids
	f := &Field{alpha: s.alpha, ps: s.ps, vols: s.vols, ref: s.vols.Mean(), fast: s.fast}
	f.bindAdjacency(ids)
	init := make([]embed.Point, len(ids))
	inherited := make([]bool, len(ids))
	for i, p := 0, 0; i < len(ids); i++ {
		for p < len(s.prevIDs) && s.prevIDs[p] < ids[i] {
			p++
		}
		if p < len(s.prevIDs) && s.prevIDs[p] == ids[i] {
			init[i], inherited[i] = s.prevPos[p], true
		}
	}
	known := append([]bool(nil), inherited...)
	for i, id := range ids {
		if known[i] {
			continue
		}
		var cx, cy float64
		seen := 0
		js, _, _ := f.AttractionRow(i)
		for _, j := range js {
			if inherited[j] {
				cx += init[j].X
				cy += init[j].Y
				seen++
			}
		}
		if seen > 0 {
			jit := embed.InitialPosition(id, 0.5, s.cfg.Seed)
			init[i] = embed.Point{X: cx/float64(seen) + jit.X, Y: cy/float64(seen) + jit.Y}
			known[i] = true
		}
	}
	if s.noEmbed {
		for i, id := range ids {
			if !known[i] {
				init[i] = embed.InitialPosition(id, embed.InitRadius, s.cfg.Seed)
			}
		}
		return layout{Result: embed.Result{Pos: init}}
	}
	cfg := s.cfg
	if s.prevIDs == nil {
		// Cold start: "initially, at time slot 0, all the points are
		// distributed in the 2D plane" — give the layout room to converge
		// before the first clustering; later slots only refine.
		cfg.MaxIters = 5 * cfg.MaxIters
	} else if s.reopt {
		// Epoch boundary: warm-started re-optimization toward the new
		// regime's correlation geometry.
		cfg.MaxIters = reoptBoost * cfg.MaxIters
	}
	start := time.Now()
	res := embed.Run(ids, init, known, f, cfg)
	return layout{res, time.Since(start).Nanoseconds()}
}

// aheadJob is a layoutStep running one slot ahead on a budget worker.
// Exactly one side gives the worker back: the job when it finishes, or the
// next Place when it lends its own core to the job first (take).
type aheadJob struct {
	step     layoutStep
	released atomic.Bool
	done     chan layout
}

func (j *aheadJob) release() {
	if !j.released.Swap(true) {
		j.step.cfg.Workers.Release(1)
	}
}

// take waits for the job, if any, and returns its layout when it embedded
// exactly s. Like the daemon's landing turn, a caller that finds the job
// still running would only wait, so it gives the job's worker back to the
// budget, where the job's remaining sharded passes take it.
func (j *aheadJob) take(s *layoutStep) (layout, bool) {
	if j == nil {
		return layout{}, false
	}
	j.release()
	res := <-j.done
	t := &j.step
	return res, t.slot == s.slot && t.ps == s.ps && t.vols == s.vols && t.reopt == s.reopt && t.noEmbed == s.noEmbed && slices.Equal(t.ids, s.ids)
}

// Allocate implements policy.Policy: the correlation-aware local phase.
func (c *Controller) Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	return alloc.CorrelationAware(ids, ps, d.Model, d.Servers)
}

// Positions returns the last slot's embedding layout by VM id, built on
// demand for diagnostics and visualization tools.
func (c *Controller) Positions() map[int]embed.Point {
	m := make(map[int]embed.Point, len(c.ids))
	for k, id := range c.ids {
		m[id] = c.pos[k]
	}
	return m
}
