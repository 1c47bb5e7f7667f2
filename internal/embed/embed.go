// Package embed implements the first step of the paper's global phase: the
// force-directed 2D embedding of VMs (Sect. IV-B.1, Eqs. 5-7).
//
// Every VM is a point in the plane. For each ordered pair, a total force
//
//	F_t = alpha*F_a + (1-alpha)*F_r
//
// combines the attraction F_a in [-1,0) from data correlation and the
// repulsion F_r in (0,1] from CPU-load correlation. Per iteration the
// resultant force on each point is resolved into X/Y components (Eq. 6) and
// the point is displaced by 1/2*F*t^2. Each iteration also evaluates the
// alignment cost CostAR_k = sum F_t*(d_k - d_{k-1}) (Eq. 7) of its
// displacement. The paper stops at the first iteration whose cost is lower
// than the previous one; here iteration stops once the cost falls below
// stopFrac of its peak so far — movement has stopped helping — or when
// MaxIters is reached (stopFrac documents why the literal rule is not
// used). The final layout seeds both the k-means step and the next slot's
// embedding.
//
// Pair force magnitudes depend only on the slot's correlation data, not on
// positions, so in exact mode (up to Config.ExactThreshold points) they are
// evaluated once into a dense cache and the iterations are pure float
// arithmetic, one pair pass per iteration on internal/simd's row kernel
// (AVX2 where the CPU has it, bit-identical to the Go loop). Above the
// threshold each point's repulsion is estimated from SampleK deterministic
// random peers per iteration while attraction stays exact over the sparse
// data pairs; this approximation (README, "Deviations from the paper", item
// 4) keeps the paper-scale problem real-time, as the paper's "low
// computational overhead" claim requires. Each point's draw is hashed,
// batched through one RepulsionRow call (the controller's packed
// correlation scan) and corrected for drawn attraction partners through a
// stamp table; its forces then run on internal/simd's sampled kernel, four
// peers per step, again bit-identical to the Go loop. A run addresses
// points by index: point i is ids[i], forces come from a SplitField bound
// to that order, and positions go in and come out as slices.
package embed

import (
	"math"
	"slices"
	"sync"

	"geovmp/internal/par"
	"geovmp/internal/rng"
	"geovmp/internal/simd"
)

// Point is a 2D location.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Field supplies pairwise forces between VM ids: the id-addressed force
// model RefineOne seats a single arrival with (the caller, which keeps the
// data adjacency, names the arrival's peers). Implementations are provided
// by the core controller, which knows the slot's correlation data.
type Field interface {
	// Force returns F_t exerted on point `onto` by point `by` (Eq. 5):
	// negative values attract `onto` toward `by`, positive repel.
	Force(onto, by int) float64
	// Repulsion returns Force's repulsive component alone, which is Force
	// itself, bit for bit, for a pair that exchanges no data.
	Repulsion(onto, by int) float64
}

// SplitField is the index-addressed form of a Field that Run consumes,
// exposing Eq. 5's structure: a symmetric repulsive term per pair plus
// sparse directed attraction. Run calls Bind(ids) once, before any other
// method and before any shard starts, and point i is ids[i] until Run
// returns, so per-point state can be laid out in point order. The
// decomposition must satisfy Force(ids[i], ids[j]) == RepulsionRow(i, {j})
// + on, where on is the attraction AttractionRow(i) reports for partner j
// (0 when j is not a partner), with the repulsion symmetric in i and j.
type SplitField interface {
	// Bind fixes the point order of the run about to start: point i is
	// ids[i]. ids must not be modified until the run ends.
	Bind(ids []int)
	// RepulsionRow fills dst[k] with the symmetric repulsive component of
	// the (i, js[k]) pair force between bound points, already blended by
	// the field's weighting.
	RepulsionRow(i int, js []int32, dst []float64)
	// AttractionRow returns point i's data-correlated partners js, each
	// once, with on[k] the (already blended, non-positive) attractive
	// component of the force on i by js[k] and by[k] that of the force on
	// js[k] by i. Rows are symmetric: j lists i whenever i lists j.
	AttractionRow(i int) (js []int32, on, by []float64)
}

// Config tunes one embedding run: the settings its callers differ in, and
// the two regime seams. The rest of the tuning is the constants below.
type Config struct {
	Seed     uint64 // keys deterministic scatter and sampling
	MaxIters int    // iteration cap, stated by every caller (0 runs none)
	// ExactThreshold is the largest fleet embedded with exact all-pairs
	// forces (default 512) and SampleK the number of sampled repulsion
	// peers per point above it (default 96). No production caller sets
	// either: they are the regime seams through which tests reach the
	// sampled mode on small fleets.
	ExactThreshold int
	SampleK        int
	// FastMath opts into frozen peers only (default off). Above the exact
	// threshold the sampled mode keeps each point's iteration-0 draw of
	// hashed repulsion peers for the whole run and evaluates their forces
	// once into a per-run table, so iterations become pure float
	// arithmetic; at or below the threshold it changes nothing. It leaves
	// the field's kernel alone: the documented fast mode, with its FastEps
	// error budget, is policy.Input.FastMath, which sets this and packs the
	// controller's field with tick-count records (correlation.Packed).
	FastMath bool
	// Workers optionally lends extra goroutines to the embedding's sharded
	// passes: the exact mode's dense force-cache build, and the sampled
	// mode's attraction-pair build (buildAttraction), frozen-table build
	// and per-point repulsion estimation, all of which write disjoint
	// outputs per point and are therefore bit-identical to serial execution
	// at any worker count. When set, the Field (and SplitField) must be
	// safe for concurrent readers — the controller's correlation field is.
	// Nil runs everything on the caller's goroutine.
	Workers *par.Budget
}

func (c *Config) applyDefaults() {
	if c.ExactThreshold == 0 {
		c.ExactThreshold = 512
	}
	if c.SampleK == 0 {
		c.SampleK = defaultSampleK
	}
}

// defaultSampleK is Config.SampleK's default.
const defaultSampleK = 96

// The embedding's one tuning, shared by every caller. Typed, so constant
// expressions over them round as they would over float64 variables.
const (
	timeStep    float64 = 1 // t in Eq. 6's 1/2*F*t^2 displacement
	maxDisplace float64 = 1 // clamp on a point's displacement per iteration
	// InitRadius is the radius of the deterministic scatter disc that
	// points without a position start on (InitialPosition).
	InitRadius float64 = 10
	// gravity pulls every point toward the origin with force gravity x
	// distance per iteration. Eq. 6 alone lets the dense repulsion field
	// expand the cloud without bound across slots; a weak centering force
	// caps the radius while leaving relative structure — the quantity
	// k-means consumes — intact.
	gravity float64 = 0.02
	// stopFrac ends the iteration once the alignment cost CostAR (Eq. 7)
	// falls below this fraction of its peak value. The paper stops at the
	// first iteration whose cost is lower than the previous one; with
	// clamped displacements productivity declines monotonically from
	// iteration one, so the literal rule would always stop after three
	// iterations — the fraction-of-peak test preserves the rule's intent
	// ("stop when movement stops helping") and actually converges.
	stopFrac float64 = 0.15
	// repulsionScale (kappa) normalizes the dense repulsion field:
	// repulsive pair forces are weighted by min(1, kappa/(n-1)) so a
	// point's total repulsion stays comparable to its total attraction at
	// any fleet size. Eq. 6's raw sums are scale-dependent — with
	// thousands of points the O(n) repulsion sum drowns the O(degree)
	// attraction and no data-locality structure can form; at the paper's
	// problem sizes the weight saturates at 1 and the literal equation is
	// recovered.
	repulsionScale float64 = 4
)

// stopNow evaluates the halting rule given the cost history peak.
func stopNow(iter int, cost, peak float64) bool {
	return iter >= 2 && peak > 0 && cost < stopFrac*peak
}

// repulsionWeight returns the class weight for repulsive pair forces at
// fleet size n.
func repulsionWeight(n int) float64 {
	if n <= 1 {
		return 1
	}
	return min(1, repulsionScale/float64(n-1))
}

// weighted applies the repulsion class weight rw to a repulsive force;
// attraction passes through.
func weighted(f, rw float64) float64 {
	if f > 0 {
		return f * rw
	}
	return f
}

// Result reports the embedding outcome.
type Result struct {
	Pos        []Point   // final position of every point, in point order
	Iterations int       // iterations actually executed
	Cost       []float64 // CostAR per iteration (Eq. 7)
}

// InitialPosition returns the deterministic scatter position used for a
// point with no inherited location: a hash-angle placement on a disc. It is
// exported so callers can pre-place new VMs consistently.
func InitialPosition(id int, radius float64, seed uint64) Point {
	ang := rng.Noise01(seed, uint64(id), 0xA06) * 2 * math.Pi
	r := math.Sqrt(rng.Noise01(seed, uint64(id), 0xD15)) * radius
	return Point{X: r * math.Cos(ang), Y: r * math.Sin(ang)}
}

// Run executes the embedding over ids, point i being ids[i]. Point i
// starts at init[i] when known[i] (the paper carries positions across
// slots; a nil known marks every init entry known) and is scattered
// deterministically otherwise.
func Run(ids []int, init []Point, known []bool, field SplitField, cfg Config) Result {
	cfg.applyDefaults()
	n := len(ids)
	px := make([]float64, n)
	py := make([]float64, n)
	for i, id := range ids {
		var p Point
		if i < len(init) && (known == nil || known[i]) {
			p = init[i]
		} else {
			p = InitialPosition(id, InitRadius, cfg.Seed)
		}
		px[i], py[i] = p.X, p.Y
	}
	res := Result{Pos: make([]Point, n)}
	if n >= 2 {
		field.Bind(ids)
		if n <= cfg.ExactThreshold {
			res.Iterations, res.Cost = runExact(px, py, field, cfg)
		} else {
			res.Iterations, res.Cost = runSampled(px, py, field, cfg)
		}
	}
	for i := range res.Pos {
		res.Pos[i] = Point{X: px[i], Y: py[i]}
	}
	return res
}

// Shard grains of the parallel passes. Fixed constants keep shard
// boundaries a pure function of the problem size (see internal/par), and
// both are sized so a shard amortizes the claim overhead while leaving
// enough shards for load balancing across the triangle's shrinking rows.
const (
	exactRowGrain     = 8  // rows per shard of the dense cache build
	sampledPointGrain = 32 // points per shard of the sampled repulsion pass
)

// exactScratch pools runExact's O(n^2) caches so per-slot embeddings reuse
// them instead of allocating 4 n^2 floats each. Only the upper triangles
// (i < j) are ever read, so recycled buffers need no clearing.
type exactScratch struct{ wft, wftT, sft, prevD []float64 }

var exactPool = sync.Pool{New: func() any { return new(exactScratch) }}

func (s *exactScratch) ensure(n2 int) {
	if cap(s.wft) < n2 {
		s.wft = make([]float64, n2)
		s.wftT = make([]float64, n2)
		s.sft = make([]float64, n2)
		s.prevD = make([]float64, n2)
	}
	s.wft = s.wft[:n2]
	s.wftT = s.wftT[:n2]
	s.sft = s.sft[:n2]
	s.prevD = s.prevD[:n2]
}

// rowPool recycles the dense build's per-shard row of both force
// directions, 2n floats.
var rowPool = sync.Pool{New: func() any { return new([]float64) }}

// build fills the iteration caches from the field. Both force directions
// of each unordered pair live at the same row-major upper-triangle index —
// wft[i*n+j] is the weighted force on ids[i] by ids[j] and wftT[i*n+j] the
// one on ids[j] by ids[i], i < j, with sft[i*n+j] their unweighted sum the
// cost function reads — so the build and every pass run on sequential
// memory; the lower triangles are never touched (hence never cleared).
//
// Row i's forces are its symmetric repulsion row copied to both
// directions, then the sparse attraction terms on top (the addition order
// matches the blended Force expression exactly: fa + fr, commutative),
// assembled in a per-shard row buffer and written out with the repulsion
// class weight rw applied once. Rows are sharded in contiguous batches —
// each shard writes only its own rows — so the build is bit-identical to
// the serial sweep at any worker count.
func (s *exactScratch) build(n int, sf SplitField, rw float64, workers *par.Budget) {
	seq := make([]int32, n)
	for i := range seq {
		seq[i] = int32(i)
	}
	par.For(workers, n, exactRowGrain, func(lo, hi int) {
		buf := rowPool.Get().(*[]float64)
		defer rowPool.Put(buf)
		*buf = slices.Grow((*buf)[:0], 2*n)[:2*n]
		for i := lo; i < hi; i++ {
			m := n - i - 1
			ft, ftT := (*buf)[:m], (*buf)[n:n+m] // partner k is point i+1+k
			sf.RepulsionRow(i, seq[i+1:], ft)
			copy(ftT, ft)
			js, on, by := sf.AttractionRow(i)
			for k, j := range js {
				if int(j) <= i {
					continue
				}
				if on[k] != 0 {
					ft[int(j)-i-1] += on[k]
				}
				if by[k] != 0 {
					ftT[int(j)-i-1] += by[k]
				}
			}
			o := i*n + i + 1
			for k := range ft {
				s.wft[o+k] = weighted(ft[k], rw)
				s.wftT[o+k] = weighted(ftT[k], rw)
				s.sft[o+k] = ft[k] + ftT[k]
			}
		}
	})
}

// pass sweeps every pair once over the current positions: it adds the
// pair forces into fx/fy and returns the cost (Eq. 7) of the displacement
// since the previous pass, then stores the distances for the next one.
// Fusing the two — both need the same pair sweep and the same Euclidean
// distance, computed once per pair — halves the O(n^2) work. Pass 0 has no
// previous displacement (prevD holds whatever the recycled buffer held),
// so its cost is meaningless and callers drop it.
//
// Each row i runs on exact, the simd row kernel or (in tests) its Go
// oracle, which carries the cost and fx[i]/fy[i] across the row in
// ascending partner order; the group it stops before goes through Pairs,
// which gives a coincident pair (d < 1e-9) a hashed direction.
func (s *exactScratch) pass(px, py, fx, fy []float64, seed uint64, iter int, exact func(*simd.Row, int) int) float64 {
	n := len(px)
	var cost float64
	r := new(simd.Row)
	for i := 0; i < n; i++ {
		o, e := i*n+i+1, i*n+n
		*r = simd.Row{
			X: px[i], Y: py[i],
			Px: px[i+1:], Py: py[i+1:], Fx: fx[i+1:], Fy: fy[i+1:],
			Sft: s.sft[o:e], PrevD: s.prevD[o:e], Wft: s.wft[o:e], WftT: s.wftT[o:e],
			Cost: cost, FX: fx[i], FY: fy[i],
		}
		dir := func(k int) (float64, float64) {
			ang := rng.Noise01(seed, uint64(i), uint64(i+1+k), uint64(iter)) * 2 * math.Pi
			return math.Cos(ang), math.Sin(ang)
		}
		for k, m := 0, n-i-1; k < m; {
			k = exact(r, k)
			k = r.Pairs(k, min(k+4, m), dir)
		}
		cost, fx[i], fy[i] = r.Cost, r.FX, r.FY
	}
	return cost
}

// runExact evaluates all ordered pairs with a dense, once-computed force
// cache.
func runExact(px, py []float64, sf SplitField, cfg Config) (int, []float64) {
	n := len(px)
	scr := exactPool.Get().(*exactScratch)
	scr.ensure(n * n)
	defer exactPool.Put(scr)
	scr.build(n, sf, repulsionWeight(n), cfg.Workers)

	fx := make([]float64, n)
	fy := make([]float64, n)
	var costs []float64
	peak := 0.0
	iters := 0
	record := func(cost float64) bool {
		costs = append(costs, cost)
		if cost > peak {
			peak = cost
		}
		return stopNow(iters-1, cost, peak)
	}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		for i := range fx {
			fx[i], fy[i] = 0, 0
		}
		cost := scr.pass(px, py, fx, fy, cfg.Seed, iter, (*simd.Row).Exact)
		if iter > 0 && record(cost) {
			break
		}
		displace(px, py, fx, fy)
		iters = iter + 1
	}
	if len(costs) < iters {
		// MaxIters displacements executed: the last one's cost is pending.
		// The pass's forces go unused.
		record(scr.pass(px, py, fx, fy, cfg.Seed, iters, (*simd.Row).Exact))
	}
	return iters, costs
}

// runSampled keeps attraction exact over the sparse data-correlated pairs
// and estimates repulsion from SampleK hashed peers per point. By default
// the peers are redrawn every iteration; with FastMath each point keeps its
// iteration-0 draw for the whole run, so the forces are evaluated once into
// a pooled n x SampleK table and every iteration is pure float arithmetic.
// Both draws go through sampler.draw, so the frozen table holds exactly the
// forces the first per-iteration draw would. The cost function is evaluated
// over the exact attraction pairs (the stable subset), which preserves the
// stopping rule's intent.
func runSampled(px, py []float64, sf SplitField, cfg Config) (int, []float64) {
	n := len(px)
	apairs := buildAttraction(n, sf, cfg.Workers)
	prevD := make([]float64, len(apairs))
	for k, p := range apairs {
		dx := px[p.i] - px[p.j]
		dy := py[p.i] - py[p.j]
		prevD[k] = math.Sqrt(dx*dx + dy*dy)
	}
	s := newSampler(n, sf, cfg)
	if cfg.FastMath {
		s.frozen = frozenPool.Get().(*peerRows)
		defer frozenPool.Put(s.frozen)
		s.freeze(cfg.Workers)
	}
	rw := repulsionWeight(n)

	fx := make([]float64, n)
	fy := make([]float64, n)
	var costs []float64
	peak := 0.0
	iters := 0
	for iter := 0; iter < cfg.MaxIters; iter++ {
		for i := range fx {
			fx[i], fy[i] = 0, 0
		}
		for k := range apairs {
			p := &apairs[k]
			dx := px[p.i] - px[p.j]
			dy := py[p.i] - py[p.j]
			d := math.Sqrt(dx*dx + dy*dy)
			if d < 1e-9 {
				ang := rng.Noise01(cfg.Seed, uint64(p.i), uint64(p.j), uint64(iter)) * 2 * math.Pi
				dx, dy, d = math.Cos(ang), math.Sin(ang), 1
			}
			ux, uy := dx/d, dy/d
			fx[p.i] += weighted(p.fij, rw) * ux
			fy[p.i] += weighted(p.fij, rw) * uy
			fx[p.j] -= weighted(p.fji, rw) * ux
			fy[p.j] -= weighted(p.fji, rw) * uy
		}
		s.pass(px, py, fx, fy, iter, cfg.Workers, (*simd.Draw).Sampled)
		displace(px, py, fx, fy)

		var cost float64
		for k, p := range apairs {
			// The same Sqrt distance metric the exact mode's cost uses.
			dx := px[p.i] - px[p.j]
			dy := py[p.i] - py[p.j]
			d := math.Sqrt(dx*dx + dy*dy)
			cost += (p.fij + p.fji) * (d - prevD[k])
			prevD[k] = d
		}
		costs = append(costs, cost)
		iters = iter + 1
		if cost > peak {
			peak = cost
		}
		if stopNow(iter, cost, peak) {
			break
		}
	}
	return iters, costs
}

// sampler is the sampled mode's repulsion estimate: the hashed peer draws
// and the per-point force pass over them.
type sampler struct {
	sf   SplitField
	n, k int // points, peers per draw
	seed uint64
	// keys[k] is sample key k pre-mixed: peer k of point i's draw is
	// Hash(Seed, i, draw, k) mod n, computed as the fold of the row's
	// (Seed, i, draw) prefix with keys[k] (rng's Hash(keys..., k) ==
	// FoldKey(Hash(keys...), Key(k)) identity), so a row hashes its prefix
	// once instead of SampleK times.
	keys []uint64
	// scale turns a sampled force into its share of the estimate: each
	// point samples SampleK of the n-1 possible peers, so (n-1)/SampleK
	// estimates the full Eq. 6 sum, and the repulsion class weight then
	// normalizes it against the sparse attraction. The two compose to
	// kappa/SampleK.
	scale  float64
	frozen *peerRows // the FastMath n x SampleK table, or nil
}

func newSampler(n int, sf SplitField, cfg Config) *sampler {
	s := &sampler{sf: sf, n: n, k: cfg.SampleK, seed: cfg.Seed, keys: sampleKeys(cfg.SampleK)}
	s.scale = float64(n-1) / float64(cfg.SampleK) * repulsionWeight(n)
	return s
}

// draw fills kj with point i's SampleK hashed peers for the given draw and
// f with their forces (0 for a self-sample). The whole draw is batched
// through one RepulsionRow call — hoisting the point's profile state out of
// the per-sample loop and skipping the volume probe Force would pay — and
// then the self-sample and the rare attraction partners have their entries
// corrected: 0, and the repulsion plus the attraction term, which is Force
// by the SplitField contract. Each value is a pure per-pair function, so
// the draw is bit-identical to per-pair Force evaluation.
//
// Partners are found through the stamp table mark, n entries that are all
// zero on entry and on return: point i's partners are marked with their
// attraction-row entry plus one, each drawn peer looks its mark up, and
// only the marks set are cleared. Marking in descending order lets a
// partner listed twice keep its first entry, so the lookup finds what a
// scan of the row would.
func (s *sampler) draw(i int, draw uint64, kj []int32, f []float64, mark []int32) {
	prefix, n := rng.Hash(s.seed, uint64(i), draw), uint64(s.n)
	for k, key := range s.keys {
		kj[k] = int32(rng.FoldKey(prefix, key) % n)
	}
	s.sf.RepulsionRow(i, kj, f)
	js, on, _ := s.sf.AttractionRow(i)
	for e := len(js) - 1; e >= 0; e-- {
		mark[js[e]] = int32(e + 1)
	}
	for k, j := range kj {
		if int(j) == i {
			f[k] = 0
		} else if e := mark[j]; e > 0 {
			f[k] += on[e-1]
		}
	}
	for _, j := range js {
		mark[j] = 0
	}
}

// pass adds every point's sampled repulsion estimate to fx/fy over the
// current positions, drawing the peers of iteration iter unless they are
// frozen. Point i writes only fx[i]/fy[i] and reads only positions frozen
// for the whole pass, accumulating in sample order, so sharding the points
// leaves every float exactly as in the serial loop. Each point runs on
// sampled, the simd kernel or (in tests) its Go oracle; the group it stops
// before goes through Pairs, which gives a coincident peer (d < 1e-9) a
// hashed direction.
func (s *sampler) pass(px, py, fx, fy []float64, iter int, workers *par.Budget, sampled func(*simd.Draw, int) int) {
	par.For(workers, s.n, sampledPointGrain, func(lo, hi int) {
		var scr *peerRows
		if s.frozen == nil {
			scr = samplePool.Get().(*peerRows)
			defer samplePool.Put(scr)
			scr.ensure(s.k, s.n)
		}
		d := new(simd.Draw)
		for i := lo; i < hi; i++ {
			*d = simd.Draw{X: px[i], Y: py[i], Px: px, Py: py, Scale: s.scale, FX: fx[i], FY: fy[i]}
			if s.frozen != nil {
				d.J, d.F = s.frozen.kj[i*s.k:(i+1)*s.k], s.frozen.f[i*s.k:(i+1)*s.k]
			} else {
				d.J, d.F = scr.kj, scr.f
				s.draw(i, uint64(iter), scr.kj, scr.f, scr.mark)
			}
			dir := func(k int) (float64, float64) {
				ang := rng.Noise01(s.seed, uint64(i), uint64(d.J[k]), uint64(iter)) * 2 * math.Pi
				return math.Cos(ang), math.Sin(ang)
			}
			for k := 0; k < s.k; {
				k = sampled(d, k)
				k = d.Pairs(k, min(k+4, s.k), dir)
			}
			fx[i], fy[i] = d.FX, d.FY
		}
	})
}

// freeze fills the frozen table with every point's iteration-0 draw.
func (s *sampler) freeze(workers *par.Budget) {
	s.frozen.ensure(s.n*s.k, 0)
	par.For(workers, s.n, sampledPointGrain, func(lo, hi int) {
		scr := samplePool.Get().(*peerRows)
		defer samplePool.Put(scr)
		scr.ensure(0, s.n)
		for i := lo; i < hi; i++ {
			s.draw(i, 0, s.frozen.kj[i*s.k:(i+1)*s.k], s.frozen.f[i*s.k:(i+1)*s.k], scr.mark)
		}
	})
}

// apair is one exact attraction pair of the sampled mode, with both
// directed force components.
type apair struct {
	i, j int
	fij  float64 // on i by j
	fji  float64 // on j by i
}

// buildAttraction collects the unique attraction pairs with their directed
// forces, pair {i, j} (i < j) in the order point i's attraction row lists
// j. Each force is the pair's repulsion, batched per point through
// RepulsionRow, plus its attraction term — Force by the SplitField
// contract. Each point fills only its own pairs, so the sharded fill is
// bit-identical to the serial one at any worker count.
func buildAttraction(n int, sf SplitField, workers *par.Budget) []apair {
	off := make([]int, n+1)
	var pj, pk []int32 // partner and its attraction-row entry, per pair
	for i := 0; i < n; i++ {
		js, _, _ := sf.AttractionRow(i)
		for k, j := range js {
			if int(j) > i {
				pj = append(pj, j)
				pk = append(pk, int32(k))
			}
		}
		off[i+1] = len(pj)
	}
	apairs := make([]apair, len(pj))
	rep := make([]float64, len(pj))
	par.For(workers, n, sampledPointGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := off[i], off[i+1]
			if a == b {
				continue
			}
			sf.RepulsionRow(i, pj[a:b], rep[a:b])
			_, on, by := sf.AttractionRow(i)
			for m := a; m < b; m++ {
				apairs[m] = apair{i: i, j: int(pj[m]), fij: rep[m] + on[pk[m]], fji: rep[m] + by[pk[m]]}
			}
		}
	})
	return apairs
}

// displace applies Eq. 6's displacement step to every point.
func displace(px, py, fx, fy []float64) {
	for i := range px {
		px[i], py[i] = step(px[i], py[i], fx[i], fy[i])
	}
}

// step moves the point at (x, y) under the force (fx, fy) by Eq. 6's
// 1/2*F*t^2, with the per-iteration clamp and the centering gravity.
func step(x, y, fx, fy float64) (float64, float64) {
	const half = 0.5 * timeStep * timeStep
	dx := half*fx - gravity*x
	dy := half*fy - gravity*y
	if m := math.Sqrt(dx*dx + dy*dy); m > maxDisplace {
		s := maxDisplace / m
		dx *= s
		dy *= s
	}
	return x + dx, y + dy
}

// peerRows holds rows of SampleK hashed peers (kj) and their forces (f):
// one row as a shard's per-iteration scratch, n rows as the frozen table.
// A shard's scratch also holds the n-entry stamp table of sampler.draw,
// all zero between draws.
type peerRows struct {
	kj   []int32
	f    []float64
	mark []int32
}

// ensure sizes the rows to m peers and the stamp table to n points; a
// grown table is zero and a kept one was left zero by every draw.
func (r *peerRows) ensure(m, n int) {
	if cap(r.kj) < m {
		r.kj = make([]int32, m)
		r.f = make([]float64, m)
	}
	if cap(r.mark) < n {
		r.mark = make([]int32, n)
	}
	r.kj = r.kj[:m]
	r.f = r.f[:m]
	r.mark = r.mark[:n]
}

// frozenPool recycles the frozen n x SampleK table across runs. Every
// entry is rewritten before it is read, so recycled tables need no
// clearing.
var frozenPool = sync.Pool{New: func() any { return new(peerRows) }}

// samplePool recycles the per-shard peer row and stamp table of the
// sampled pass and the frozen table's build.
var samplePool = sync.Pool{New: func() any { return new(peerRows) }}
