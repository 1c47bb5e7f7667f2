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
	"sort"
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
	// DemandHeadroom scales the predicted fleet demand when sizing caps
	// (default 1.10): slight over-provisioning absorbs forecast error.
	DemandHeadroom float64
	// NoEmbedding disables the force-directed phase (ablation A2): points
	// keep inherited/scattered positions, so k-means sees no correlation
	// geometry.
	NoEmbedding bool
	// Embed tunes the force-directed layout.
	Embed embed.Config
	// KMeans iteration cap (default 12).
	KMeansIters int
	// Stick is the k-means stay-bias in (0,1]: the distance from a VM to
	// its current DC's centroid is multiplied by it, making staying
	// cheaper than moving (default 0.7; 1 disables).
	Stick float64
	// CapSmooth is the EMA weight on the previous slot's caps in [0,1)
	// (default 0.8; negative disables smoothing).
	CapSmooth float64

	positions map[int]embed.Point
	centroids []embed.Point
	prevCaps  []float64
	// reoptimize is armed by StartEpoch and consumed by the next Place: the
	// boundary slot re-runs the embedding with a warm-restart iteration
	// boost and rebuilds the capacity caps without the previous epoch's EMA
	// history, so the layout and the energy budgets re-converge to the new
	// workload regime instead of drifting toward it one damped slot at a
	// time.
	reoptimize bool

	// LastEmbedIters and LastEmbedCost record the most recent embedding
	// run's iteration count and cost trace (diagnostics).
	LastEmbedIters int
	LastEmbedCost  []float64
	// EmbedNS accumulates wall time (ns) spent inside embed.Run across the
	// simulation; BoundaryEmbedNS the subset spent on epoch-boundary
	// re-optimization slots. Benchmarks read these to isolate the
	// embedding's share of a slot.
	EmbedNS         int64
	BoundaryEmbedNS int64
}

// New returns a Controller with the given alpha (0.9 when out of range) and
// deterministic behavior keyed by seed.
func New(alpha float64, seed uint64) *Controller {
	if alpha < 0 || alpha > 1 {
		alpha = 0.9
	}
	return &Controller{
		Alpha: alpha,
		Embed: embed.Config{Seed: seed, MaxIters: 20, MaxDisplace: 1.0, RepulsionScale: 4},
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

// field adapts a slot's correlation data to the embedding's force model
// (Eq. 5).
type field struct {
	alpha float64
	ps    *correlation.ProfileSet
	vols  *correlation.DataMatrix
	ref   units.DataSize
	peers map[int][]int
	// fast routes the repulsion term through the quantized
	// peak-coincidence kernel (error bound correlation.FastEps per pair).
	fast bool
	// ids and packed hold the embedding run's point order (see Bind):
	// point i is ids[i], and packed lays the exact kernel's profile rows
	// out in that order.
	ids    []int
	packed correlation.Packed
}

// Force implements embed.Field: F_t exerted on `onto` by `by`, combining
// the attraction of the data `by` sends toward `onto` with peak-coincidence
// repulsion.
func (f *field) Force(onto, by int) float64 {
	fa := correlation.NormalizeData(f.vols.Vol(by, onto), f.ref)
	var fr float64
	if f.fast {
		fr = f.ps.CPUCorrFast(onto, by)
	} else {
		fr = f.ps.CPUCorr(onto, by)
	}
	return f.alpha*fa + (1-f.alpha)*fr
}

// Bind implements embed.SplitField: it packs the slot's profile rows in the
// run's point order, so the exact kernel resolves a partner with one dense
// record load. Fast mode keeps its id-addressed quantized tables and only
// records the order. The table lives as long as the field, one Place or
// reconciliation.
func (f *field) Bind(ids []int) {
	f.ids = ids
	if !f.fast {
		f.ps.Pack(&f.packed, ids)
	}
}

// fastChunk is how many partners fast mode translates back to ids per
// CPUCorrFastInto call, in a stack buffer shared by no other shard.
const fastChunk = 128

// RepulsionRow implements embed.SplitField: the peak-coincidence term is
// symmetric, so the dense cache evaluates it once per unordered pair, one
// bulk profile sweep per row — and the sampled mode batches each point's
// hashed partners through it, skipping the volume-matrix probe Force pays
// on non-communicating pairs. For such pairs Force computes
// alpha*0 + (1-alpha)*fr, which equals this row's (1-alpha)*fr bit for
// bit, satisfying the SplitField decomposition contract.
func (f *field) RepulsionRow(i int, js []int32, dst []float64) {
	if f.fast {
		var buf [fastChunk]int
		for lo := 0; lo < len(js); lo += fastChunk {
			part := js[lo:min(lo+fastChunk, len(js))]
			bs := buf[:len(part)]
			for k, j := range part {
				bs[k] = f.ids[j]
			}
			f.ps.CPUCorrFastInto(dst[lo:lo+len(part)], f.ids[i], bs)
		}
	} else {
		f.packed.CPUCorrInto(dst, i, js)
	}
	w := 1 - f.alpha
	for k := range dst {
		dst[k] *= w
	}
}

// EachAttraction implements embed.SplitField over the sparse volume matrix:
// the data `by` sends toward `onto` attracts `onto`.
func (f *field) EachAttraction(fn func(onto, by int, fa float64)) {
	f.vols.Each(func(from, to int, vol units.DataSize) {
		if fa := f.alpha * correlation.NormalizeData(vol, f.ref); fa != 0 {
			fn(to, from, fa)
		}
	})
}

// AttractionPeers implements embed.Field.
func (f *field) AttractionPeers(id int) []int { return f.peers[id] }

func buildField(alpha float64, in *policy.Input) *field {
	// Reference volume for attraction normalization: the mean pair volume.
	// The volume distribution is heavy-tailed (log-normal), so normalizing
	// by the maximum would flatten typical pairs to nothing; the mean
	// clamps heavy hitters at -1 and keeps ordinary service chatter
	// strongly attractive.
	return newField(alpha, in.Profiles, in.Volumes, in.Volumes.Mean(), nil)
}

// NewField adapts one snapshot of correlation state to the embedding's
// force model (Eq. 5) — the same field the proposed controller embeds with,
// exported so the streaming daemon's incremental refinement and background
// reconciliation exert bit-identical forces to the batch global phase. ref
// is the attraction normalization volume (typically the matrix mean); peers
// may be nil to derive the data adjacency from the volume matrix, or an
// incrementally maintained adjacency so construction stays O(1) on a
// serving hot path.
func NewField(alpha float64, ps *correlation.ProfileSet, vols *correlation.DataMatrix, ref units.DataSize, peers map[int][]int) embed.Field {
	return newField(alpha, ps, vols, ref, peers)
}

func newField(alpha float64, ps *correlation.ProfileSet, vols *correlation.DataMatrix, ref units.DataSize, peers map[int][]int) *field {
	f := &field{alpha: alpha, ps: ps, vols: vols, ref: ref, peers: peers}
	if f.peers != nil {
		return f
	}
	f.peers = make(map[int][]int)
	seen := make(map[[2]int]bool)
	vols.Each(func(from, to int, _ units.DataSize) {
		// Volume from->to attracts both endpoints; register each direction
		// once.
		if !seen[[2]int{to, from}] {
			f.peers[to] = append(f.peers[to], from)
			seen[[2]int{to, from}] = true
		}
		if !seen[[2]int{from, to}] {
			f.peers[from] = append(f.peers[from], to)
			seen[[2]int{from, to}] = true
		}
	})
	return f
}

// roundTripEff is the assumed battery round-trip efficiency used to price
// stored energy in the cap computation (charged off-peak, delivered later).
const roundTripEff = 0.90

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
	headroom := c.DemandHeadroom
	if headroom <= 0 {
		headroom = 1.10
	}
	budget := demand * headroom

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
	// tariff boundaries (heavier weight on history: tariff windows are
	// hours wide, so chasing them within a few slots is fast enough).
	smooth := c.CapSmooth
	if smooth == 0 {
		smooth = 0.8
	}
	if smooth < 0 || smooth >= 1 {
		smooth = 0
	}
	if c.prevCaps != nil && len(c.prevCaps) == n {
		for i := range caps {
			caps[i] = (1-smooth)*caps[i] + smooth*c.prevCaps[i]
		}
	}
	c.prevCaps = append(c.prevCaps[:0], caps...)
	return caps
}

// Caps exposes the cap computation for tests and the ablation benches.
func (c *Controller) Caps(in *policy.Input) []float64 { return c.caps(in) }

// Place implements policy.Policy: the full global phase.
func (c *Controller) Place(in *policy.Input) policy.Placement {
	ids := in.ActiveVMs
	n := len(in.DCs)

	reopt := c.reoptimize
	c.reoptimize = false
	if reopt {
		// New regime: budgets are re-derived from the boundary slot's own
		// observations rather than damped toward the old epoch's caps.
		c.prevCaps = nil
	}

	// Step 1: embedding. Inherited positions persist; a VM seen for the
	// first time starts at the centroid of its data-correlated peers (its
	// service lives there already — scattering it across the plane would
	// fragment the service until enough migration budget accrues to fix
	// it), falling back to the deterministic scatter. Departed VMs are
	// pruned lazily by rebuilding the map from this slot's result.
	f := buildField(c.Alpha, in)
	fast := c.Embed.FastMath || in.FastMath
	f.fast = fast
	init := make(map[int]embed.Point, len(ids))
	for _, id := range ids {
		if p, ok := c.positions[id]; ok {
			init[id] = p
			continue
		}
		var cx, cy float64
		known := 0
		for _, peer := range f.peers[id] {
			if p, ok := c.positions[peer]; ok {
				cx += p.X
				cy += p.Y
				known++
			}
		}
		if known > 0 {
			jit := embed.InitialPosition(id, 0.5, c.Embed.Seed)
			init[id] = embed.Point{X: cx/float64(known) + jit.X, Y: cy/float64(known) + jit.Y}
		}
	}
	var pos map[int]embed.Point
	if c.NoEmbedding {
		pos = make(map[int]embed.Point, len(ids))
		for _, id := range ids {
			if p, ok := init[id]; ok {
				pos[id] = p
			} else {
				pos[id] = embed.InitialPosition(id, 10, c.Embed.Seed)
			}
		}
	} else {
		cfg := c.Embed
		cfg.Workers = in.Workers
		if fast {
			cfg.FastMath = true
			// Build the quantized tables alongside the sample orders below.
			in.Profiles.SetFastMath(true)
		}
		// The embedding queries CPU correlations from concurrent shards;
		// precomputing the pruned kernel's sample orders here (itself
		// sharded) makes the profile set read-only for the rest of the
		// slot.
		in.Profiles.EnsureOrders(in.Workers)
		if c.positions == nil {
			// Cold start: "initially, at time slot 0, all the points are
			// distributed in the 2D plane" — give the layout room to
			// converge before the first clustering; later slots only
			// refine.
			cfg.MaxIters = 5 * maxInt(cfg.MaxIters, 20)
		} else if reopt {
			// Epoch boundary: warm-started re-optimization toward the new
			// regime's correlation geometry.
			cfg.MaxIters = reoptBoost * maxInt(cfg.MaxIters, 20)
		}
		start := time.Now()
		res := embed.Run(ids, init, f, cfg)
		ns := time.Since(start).Nanoseconds()
		c.EmbedNS += ns
		if reopt {
			c.BoundaryEmbedNS += ns
		}
		c.LastEmbedIters = res.Iterations
		c.LastEmbedCost = res.Cost
		pos = res.Pos
	}
	c.positions = pos

	// Step 2+3: caps and capacity-capped k-means.
	caps := c.caps(in)
	items := make([]cluster.Item, len(ids))
	for k, id := range ids {
		cur, ok := in.Current[id]
		if !ok {
			cur = -1
		}
		items[k] = cluster.Item{ID: id, Pos: pos[id], Load: in.VMEnergy[id], Current: cur}
	}
	iters := c.KMeansIters
	if iters == 0 {
		iters = 12
	}
	stick := c.Stick
	if stick == 0 {
		stick = 0.7
	}
	kres := cluster.Run(items, cluster.Config{
		K:        n,
		Caps:     caps,
		Init:     c.centroids,
		MaxIters: iters,
		Stick:    stick,
		Workers:  in.Workers,
	})

	// Step 4: migration revision (Algorithm 2).
	loads := make([]float64, n)
	for _, id := range ids {
		if cur, ok := in.Current[id]; ok {
			loads[cur] += in.VMEnergy[id]
		}
	}
	cands := make([]migrate.Candidate, len(ids))
	for k, id := range ids {
		cur, ok := in.Current[id]
		if !ok {
			cur = -1
		}
		target := kres.Assign[id]
		cands[k] = migrate.Candidate{
			ID:      id,
			Current: cur,
			Target:  target,
			Load:    in.VMEnergy[id],
			Image:   in.Image[id],
			Dist:    kres.DistToCentroid(pos[id], target),
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
	c.centroids = cluster.CentroidsOf(items, mres.Placement, n, kres.Centroids)

	return policy.Placement{DCOf: mres.Placement, Moves: mres.Moves, Rejected: mres.Rejected}
}

// Allocate implements policy.Policy: the correlation-aware local phase.
func (c *Controller) Allocate(d *dc.DC, ids []int, ps *correlation.ProfileSet) alloc.Result {
	return alloc.CorrelationAware(ids, ps, d.Model, d.Servers)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Positions exposes the controller's current embedding layout (read-only
// view for diagnostics and visualization tools).
func (c *Controller) Positions() map[int]embed.Point { return c.positions }
