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
// the point is displaced by 1/2*F*t^2. Iteration stops when the alignment
// cost CostAR_k = sum F_t*(d_k - d_{k-1}) (Eq. 7) drops below its previous
// value — movement has stopped helping — or when MaxIters is reached. The
// final layout seeds both the k-means step and the next slot's embedding.
//
// Pair force magnitudes depend only on the slot's correlation data, not on
// positions, so in exact mode (up to Config.ExactThreshold points) they are
// evaluated once into a dense cache and the iterations are pure float
// arithmetic. Above the threshold each point's repulsion is estimated from
// SampleK deterministic random peers per iteration while attraction stays
// exact over the sparse data pairs; this approximation (documented in
// DESIGN.md) keeps the paper-scale problem real-time, matching the paper's
// "low computational overhead" claim.
package embed

import (
	"math"
	"sync"

	"geovmp/internal/par"
	"geovmp/internal/rng"
)

// Point is a 2D location.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func Dist(a, b Point) float64 {
	dx := a.X - b.X
	dy := a.Y - b.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Field supplies pairwise forces. Implementations are provided by the core
// controller, which knows the slot's correlation data.
type Field interface {
	// Force returns F_t exerted on point `onto` by point `by` (Eq. 5):
	// negative values attract `onto` toward `by`, positive repel.
	Force(onto, by int) float64
	// AttractionPeers returns the ids that exert non-zero attraction on id
	// (its data-correlated peers). Used to keep sparse attraction exact in
	// sampled mode; may return nil.
	AttractionPeers(id int) []int
}

// SplitField is an optional Field extension exposing Eq. 5's structure: a
// symmetric repulsive term per pair plus sparse directed attraction edges.
// The exact mode uses it to build its dense force cache from one repulsion
// evaluation per unordered pair plus one pass over the attraction edges,
// instead of two full Force evaluations (each probing the volume matrix)
// per pair; the sampled mode batches each point's hashed repulsion partners
// through one RepulsionRow call, skipping the volume probe that dominates
// Force on the (overwhelmingly common) non-communicating pairs. The
// decomposition must satisfy
// Force(onto, by) == Repulsion(onto, by) + the attraction fa reported for
// (onto, by), with Repulsion symmetric.
//
// Repulsion is addressed by point index, not id: Run calls Bind(ids) once,
// before any RepulsionRow and before any shard starts, and point i is ids[i]
// until Run returns. A field can therefore lay its per-point state out in
// point order for the run, so a partner costs one dense load instead of an
// id lookup chain.
type SplitField interface {
	// Bind fixes the point order of the run about to start: point i is
	// ids[i]. ids must not be modified until the run ends.
	Bind(ids []int)
	// RepulsionRow fills dst[k] with the symmetric repulsive component of
	// the (i, js[k]) pair force between bound points, already blended by
	// the field's weighting.
	RepulsionRow(i int, js []int32, dst []float64)
	// EachAttraction calls fn for every nonzero directed attraction term:
	// fa is the (already blended, negative) attractive component of
	// Force(onto, by).
	EachAttraction(fn func(onto, by int, fa float64))
}

// Config tunes the embedding.
type Config struct {
	TimeStep       float64 // t in Eq. 6 (default 1)
	MaxIters       int     // iteration cap (default 30)
	MaxDisplace    float64 // per-iteration displacement clamp (default 4)
	ExactThreshold int     // max N for exact all-pairs forces (default 512)
	SampleK        int     // sampled repulsion peers above the threshold (default 96)
	InitRadius     float64 // scatter radius for points without a position (default 10)
	// Gravity pulls every point toward the origin with force Gravity x
	// distance per iteration (default 0.02; negative disables). Eq. 6
	// alone lets the dense repulsion field expand the cloud without bound
	// across slots; a weak centering force caps the radius while leaving
	// relative structure — the quantity k-means consumes — intact.
	Gravity float64
	// StopFrac ends the iteration once the alignment cost CostAR (Eq. 7)
	// falls below this fraction of its peak value (default 0.15; negative
	// disables, leaving only MaxIters). The paper stops at the first
	// iteration whose cost is lower than the previous one; with clamped
	// displacements productivity declines monotonically from iteration
	// one, so the literal rule would always stop after three iterations —
	// the fraction-of-peak test preserves the rule's intent ("stop when
	// movement stops helping") and actually converges.
	StopFrac float64
	// RepulsionScale (kappa, default 8; negative disables) normalizes the
	// dense repulsion field: repulsive pair forces are weighted by
	// min(1, kappa/(n-1)) so a point's total repulsion stays comparable to
	// its total attraction at any fleet size. Eq. 6's raw sums are
	// scale-dependent — with thousands of points the O(n) repulsion sum
	// drowns the O(degree) attraction and no data-locality structure can
	// form; at the paper's problem sizes the weight saturates at 1 and the
	// literal equation is recovered.
	RepulsionScale float64
	Seed           uint64 // keys deterministic scatter and sampling
	// FastMath opts into frozen peers (default off). Above the exact
	// threshold the sampled mode keeps each point's iteration-0 draw of
	// hashed repulsion peers for the whole run and evaluates their forces
	// once into a per-run table, so iterations become pure float
	// arithmetic; at or below the threshold it changes nothing. Callers
	// pairing this with a correlation field should also enable the field's
	// quantized kernel (see correlation.ProfileSet.SetFastMath) — the
	// combination is the documented fast mode with its FastEps error budget.
	FastMath bool
	// Workers optionally lends extra goroutines to the embedding's sharded
	// passes: the exact mode's dense force-cache build and the sampled
	// mode's per-point repulsion estimation, both of which write disjoint
	// outputs per point and are therefore bit-identical to serial execution
	// at any worker count. When set, the Field (and SplitField) must be
	// safe for concurrent readers — the controller's correlation field is.
	// Nil runs everything on the caller's goroutine.
	Workers *par.Budget
}

func (c *Config) applyDefaults() {
	if c.TimeStep == 0 {
		c.TimeStep = 1
	}
	if c.MaxIters == 0 {
		c.MaxIters = 30
	}
	if c.MaxDisplace == 0 {
		c.MaxDisplace = 4
	}
	if c.ExactThreshold == 0 {
		c.ExactThreshold = 512
	}
	if c.SampleK == 0 {
		c.SampleK = 96
	}
	if c.InitRadius == 0 {
		c.InitRadius = 10
	}
	switch {
	case c.Gravity == 0:
		c.Gravity = 0.02
	case c.Gravity < 0:
		c.Gravity = 0
	}
	if c.RepulsionScale == 0 {
		c.RepulsionScale = 8
	}
	switch {
	case c.StopFrac == 0:
		c.StopFrac = 0.15
	case c.StopFrac < 0:
		c.StopFrac = 0
	}
}

// stopNow evaluates the halting rule given the cost history peak.
func (c Config) stopNow(iter int, cost, peak float64) bool {
	return iter >= 2 && c.StopFrac > 0 && peak > 0 && cost < c.StopFrac*peak
}

// repulsionWeight returns the class weight for repulsive pair forces at
// fleet size n.
func (c Config) repulsionWeight(n int) float64 {
	if c.RepulsionScale < 0 || n <= 1 {
		return 1
	}
	w := c.RepulsionScale / float64(n-1)
	if w > 1 {
		return 1
	}
	return w
}

// Result reports the embedding outcome.
type Result struct {
	Pos        map[int]Point // final positions for every input id
	Iterations int           // iterations actually executed
	Cost       []float64     // CostAR per iteration (Eq. 7)
}

// InitialPosition returns the deterministic scatter position used for a
// point with no inherited location: a hash-angle placement on a disc. It is
// exported so callers can pre-place new VMs consistently.
func InitialPosition(id int, radius float64, seed uint64) Point {
	ang := rng.Noise01(seed, uint64(id), 0xA06) * 2 * math.Pi
	r := math.Sqrt(rng.Noise01(seed, uint64(id), 0xD15)) * radius
	return Point{X: r * math.Cos(ang), Y: r * math.Sin(ang)}
}

// Run executes the embedding over ids. init provides inherited positions
// (the paper carries positions across slots); ids absent from init are
// scattered deterministically.
func Run(ids []int, init map[int]Point, field Field, cfg Config) Result {
	cfg.applyDefaults()
	n := len(ids)
	px := make([]float64, n)
	py := make([]float64, n)
	idx := make(map[int]int, n)
	for k, id := range ids {
		idx[id] = k
		p, ok := init[id]
		if !ok {
			p = InitialPosition(id, cfg.InitRadius, cfg.Seed)
		}
		px[k], py[k] = p.X, p.Y
	}
	finish := func(iters int, cost []float64) Result {
		pos := make(map[int]Point, n)
		for k, id := range ids {
			pos[id] = Point{X: px[k], Y: py[k]}
		}
		return Result{Pos: pos, Iterations: iters, Cost: cost}
	}
	if n < 2 {
		return finish(0, nil)
	}
	sf, _ := field.(SplitField)
	if sf != nil {
		sf.Bind(ids)
	}
	if n <= cfg.ExactThreshold {
		iters, cost := runExact(ids, idx, px, py, field, sf, cfg)
		return finish(iters, cost)
	}
	iters, cost := runSampled(ids, idx, px, py, field, sf, cfg)
	return finish(iters, cost)
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
// them instead of allocating ~4 n^2 floats each. Only i != j entries are
// ever read, so recycled buffers need no clearing.
type exactScratch struct{ ft, ftT, wft, wftT, sft, prevD []float64 }

var exactPool = sync.Pool{New: func() any { return new(exactScratch) }}

func (s *exactScratch) ensure(n2 int) {
	if cap(s.ft) < n2 {
		s.ft = make([]float64, n2)
		s.ftT = make([]float64, n2)
		s.wft = make([]float64, n2)
		s.wftT = make([]float64, n2)
		s.sft = make([]float64, n2)
		s.prevD = make([]float64, n2)
	}
	s.ft = s.ft[:n2]
	s.ftT = s.ftT[:n2]
	s.wft = s.wft[:n2]
	s.wftT = s.wftT[:n2]
	s.sft = s.sft[:n2]
	s.prevD = s.prevD[:n2]
}

// runExact evaluates all ordered pairs with a dense, once-computed force
// cache.
func runExact(ids []int, idx map[int]int, px, py []float64, field Field, sf SplitField, cfg Config) (int, []float64) {
	n := len(ids)
	scr := exactPool.Get().(*exactScratch)
	scr.ensure(n * n)
	defer exactPool.Put(scr)
	// Both force directions of each unordered pair live at the same
	// row-major upper-triangle index — ft[i*n+j] is the force on ids[i] by
	// ids[j] and ftT[i*n+j] the force on ids[j] by ids[i], i < j — so the
	// build and every per-iteration sweep run on sequential memory; the
	// lower triangles are never touched (hence never cleared).
	ft := scr.ft
	ftT := scr.ftT
	if sf != nil {
		// Structured build: one symmetric repulsion row per point, copied
		// to both directions, then the sparse attraction edges on top.
		// Addition order matches the blended Force expression exactly
		// (fa + fr, commutative). Rows are sharded in contiguous batches —
		// each shard writes only its own upper-triangle rows — so the build
		// is bit-identical to the serial sweep at any worker count. Row i's
		// partners are the index range i+1..n-1.
		seq := make([]int32, n)
		for i := range seq {
			seq[i] = int32(i)
		}
		par.For(cfg.Workers, n, exactRowGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := ft[i*n+i+1 : i*n+n]
				sf.RepulsionRow(i, seq[i+1:], row)
				copy(ftT[i*n+i+1:i*n+n], row)
			}
		})
		sf.EachAttraction(func(onto, by int, fa float64) {
			i, ok1 := idx[onto]
			j, ok2 := idx[by]
			if !ok1 || !ok2 || i == j {
				return
			}
			if i < j {
				ft[i*n+j] += fa
			} else {
				ftT[j*n+i] += fa
			}
		})
	} else {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ft[i*n+j] = field.Force(ids[i], ids[j])
				ftT[i*n+j] = field.Force(ids[j], ids[i])
			}
		}
	}
	// Iteration caches: the repulsion class weight applied once instead of
	// per iteration, and the symmetric pair sum the cost function reads.
	rw := cfg.repulsionWeight(n)
	weight := func(f float64) float64 {
		if f > 0 {
			return f * rw
		}
		return f
	}
	wft := scr.wft
	wftT := scr.wftT
	sft := scr.sft
	prevD := scr.prevD
	par.For(cfg.Workers, n, exactRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for k := i*n + i + 1; k < i*n+n; k++ {
				wft[k] = weight(ft[k])
				wftT[k] = weight(ftT[k])
				sft[k] = ft[k] + ftT[k]
			}
			for j := i + 1; j < n; j++ {
				dx := px[i] - px[j]
				dy := py[i] - py[j]
				prevD[i*n+j] = math.Sqrt(dx*dx + dy*dy)
			}
		}
	})

	fx := make([]float64, n)
	fy := make([]float64, n)
	var costs []float64
	peak := 0.0
	iters := 0
	// Each pass fuses the force evaluation over the current positions with
	// the cost (Eq. 7) of the *previous* iteration's displacement — both
	// need the same pair sweep and the same Euclidean distance, computed
	// once per pair — so one O(n^2) pass per iteration replaces the former
	// two.
	pass := func(iter int, withForces bool) float64 {
		var cost float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := px[i] - px[j]
				dy := py[i] - py[j]
				d := math.Sqrt(dx*dx + dy*dy)
				if iter > 0 {
					cost += sft[i*n+j] * (d - prevD[i*n+j])
					prevD[i*n+j] = d
				}
				if !withForces {
					continue
				}
				if d < 1e-9 {
					ang := rng.Noise01(cfg.Seed, uint64(i), uint64(j), uint64(iter)) * 2 * math.Pi
					dx, dy, d = math.Cos(ang), math.Sin(ang), 1
				}
				ux, uy := dx/d, dy/d
				fij := wft[i*n+j]  // on i by j: positive pushes i along (j->i)
				fji := wftT[i*n+j] // on j by i: positive pushes j along (i->j)
				fx[i] += fij * ux
				fy[i] += fij * uy
				fx[j] -= fji * ux
				fy[j] -= fji * uy
			}
		}
		return cost
	}
	record := func(cost float64) bool {
		costs = append(costs, cost)
		if cost > peak {
			peak = cost
		}
		return cfg.stopNow(iters-1, cost, peak)
	}
	for iter := 0; iter < cfg.MaxIters; iter++ {
		for i := range fx {
			fx[i], fy[i] = 0, 0
		}
		cost := pass(iter, true)
		if iter > 0 && record(cost) {
			break
		}
		displace(px, py, fx, fy, cfg)
		iters = iter + 1
	}
	if len(costs) < iters {
		// MaxIters displacements executed: the last one's cost is pending.
		record(pass(iters, false))
	}
	return iters, costs
}

// runSampled keeps attraction exact over the sparse data-correlated pairs
// and estimates repulsion from SampleK hashed peers per point. By default
// the peers are redrawn every iteration; with FastMath each point keeps its
// iteration-0 draw for the whole run, so the forces are evaluated once into
// a pooled n x SampleK table and every iteration is pure float arithmetic.
// Both draws go through sampleRow, so the frozen table holds exactly the
// forces the first per-iteration draw would. The cost function is evaluated
// over the exact attraction pairs (the stable subset), which preserves the
// stopping rule's intent.
func runSampled(ids []int, idx map[int]int, px, py []float64, field Field, sf SplitField, cfg Config) (int, []float64) {
	n := len(ids)
	K := cfg.SampleK
	apairs, attracted := buildAttraction(ids, idx, field)
	prevD := make([]float64, len(apairs))
	for k, p := range apairs {
		dx := px[p.i] - px[p.j]
		dy := py[p.i] - py[p.j]
		prevD[k] = math.Sqrt(dx*dx + dy*dy)
	}
	// Peer k of point i's draw is Hash(Seed, i, draw, k) mod n, computed as
	// the fold of the row's (Seed, i, draw) prefix with the pre-mixed key k
	// (rng's Hash(keys..., k) == FoldKey(Hash(keys...), Key(k)) identity),
	// so a row hashes its prefix once instead of K times.
	sampleKeys := make([]uint64, K)
	for k := range sampleKeys {
		sampleKeys[k] = rng.Key(uint64(k))
	}

	// sampleRow draws point i's SampleK hashed peers for the given draw
	// into kj and their forces into f (0 for a self-sample). With a
	// SplitField the whole draw is batched through one RepulsionRow call —
	// hoisting the point's profile state out of the per-sample loop and
	// skipping the volume probe Force would pay — and then the self-sample
	// and the rare attraction peers have their entries replaced: 0 and the
	// full Force evaluation. Each repulsion value is a pure per-pair
	// function, so both paths are bit-identical.
	sampleRow := func(i int, draw uint64, kj []int32, f []float64) {
		prefix := rng.Hash(cfg.Seed, uint64(i), draw)
		for k, key := range sampleKeys {
			kj[k] = int32(rng.FoldKey(prefix, key) % uint64(n))
		}
		if sf == nil {
			for k, j := range kj {
				f[k] = 0
				if int(j) != i {
					f[k] = field.Force(ids[i], ids[j])
				}
			}
			return
		}
		sf.RepulsionRow(i, kj, f)
		for k, j := range kj {
			switch {
			case int(j) == i:
				f[k] = 0
			case containsIdx(attracted[i], j):
				f[k] = field.Force(ids[i], ids[j])
			}
		}
	}
	var frozen *peerRows
	if cfg.FastMath {
		frozen = frozenPool.Get().(*peerRows)
		defer frozenPool.Put(frozen)
		frozen.ensure(n * K)
		par.For(cfg.Workers, n, sampledPointGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sampleRow(i, 0, frozen.kj[i*K:(i+1)*K], frozen.f[i*K:(i+1)*K])
			}
		})
	}

	// Repulsion scale: each point samples SampleK of the n-1 possible
	// peers; scaling the sampled sum by (n-1)/SampleK estimates the full
	// Eq. 6 sum, and the repulsion class weight then normalizes it against
	// the sparse attraction. The two compose to kappa/SampleK.
	scale := float64(n-1) / float64(K) * cfg.repulsionWeight(n)
	rw := cfg.repulsionWeight(n)
	weight := func(f float64) float64 {
		if f > 0 {
			return f * rw
		}
		return f
	}

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
			fx[p.i] += weight(p.fij) * ux
			fy[p.i] += weight(p.fij) * uy
			fx[p.j] -= weight(p.fji) * ux
			fy[p.j] -= weight(p.fji) * uy
		}
		// The sampled repulsion estimate writes only fx[i]/fy[i] and reads
		// only positions frozen for the whole pass, accumulating in sample
		// order, so sharding the points leaves every float exactly as in
		// the serial loop.
		par.For(cfg.Workers, n, sampledPointGrain, func(lo, hi int) {
			var scr *peerRows
			if frozen == nil {
				scr = samplePool.Get().(*peerRows)
				defer samplePool.Put(scr)
				scr.ensure(K)
			}
			for i := lo; i < hi; i++ {
				var kj []int32
				var f []float64
				if frozen != nil {
					kj, f = frozen.kj[i*K:(i+1)*K], frozen.f[i*K:(i+1)*K]
				} else {
					kj, f = scr.kj, scr.f
					sampleRow(i, uint64(iter), kj, f)
				}
				for k, j := range kj {
					if f[k] <= 0 {
						continue // attraction handled exactly above
					}
					dx := px[i] - px[j]
					dy := py[i] - py[j]
					d := math.Sqrt(dx*dx + dy*dy)
					if d < 1e-9 {
						ang := rng.Noise01(cfg.Seed, uint64(i), uint64(j), uint64(iter)) * 2 * math.Pi
						dx, dy, d = math.Cos(ang), math.Sin(ang), 1
					}
					fx[i] += f[k] * scale * dx / d
					fy[i] += f[k] * scale * dy / d
				}
			}
		})
		displace(px, py, fx, fy, cfg)

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
		if cfg.stopNow(iter, cost, peak) {
			break
		}
	}
	return iters, costs
}

// apair is one exact attraction pair of the sampled mode, with both
// directed force components.
type apair struct {
	i, j int
	fij  float64 // on i by j
	fji  float64 // on j by i
}

// buildAttraction collects the unique attraction pairs with their exact
// directed forces, plus attracted[i] — the point indices declared as
// attraction peers of i (either direction): exactly the pairs the
// batched repulsion path must not take.
func buildAttraction(ids []int, idx map[int]int, field Field) ([]apair, [][]int32) {
	n := len(ids)
	var apairs []apair
	attracted := make([][]int32, n)
	seen := make(map[[2]int]bool)
	for i, id := range ids {
		for _, peer := range field.AttractionPeers(id) {
			j, ok := idx[peer]
			if !ok || i == j {
				continue
			}
			key := [2]int{min(i, j), max(i, j)}
			if seen[key] {
				continue
			}
			seen[key] = true
			attracted[key[0]] = append(attracted[key[0]], int32(key[1]))
			attracted[key[1]] = append(attracted[key[1]], int32(key[0]))
			apairs = append(apairs, apair{
				i: key[0], j: key[1],
				fij: field.Force(ids[key[0]], ids[key[1]]),
				fji: field.Force(ids[key[1]], ids[key[0]]),
			})
		}
	}
	return apairs, attracted
}

// displace applies Eq. 6's 1/2*F*t^2 step with the per-point clamp and the
// centering gravity.
func displace(px, py, fx, fy []float64, cfg Config) {
	half := 0.5 * cfg.TimeStep * cfg.TimeStep
	for i := range px {
		dx := half*fx[i] - cfg.Gravity*px[i]
		dy := half*fy[i] - cfg.Gravity*py[i]
		if m := math.Sqrt(dx*dx + dy*dy); m > cfg.MaxDisplace {
			s := cfg.MaxDisplace / m
			dx *= s
			dy *= s
		}
		px[i] += dx
		py[i] += dy
	}
}

// peerRows holds rows of SampleK hashed peers (kj) and their forces (f):
// one row as a shard's per-iteration scratch, n rows as the frozen table.
type peerRows struct {
	kj []int32
	f  []float64
}

func (r *peerRows) ensure(m int) {
	if cap(r.kj) < m {
		r.kj = make([]int32, m)
		r.f = make([]float64, m)
	}
	r.kj = r.kj[:m]
	r.f = r.f[:m]
}

// frozenPool recycles the frozen n x SampleK table across runs. Every
// entry is rewritten before it is read, so recycled tables need no
// clearing.
var frozenPool = sync.Pool{New: func() any { return new(peerRows) }}

// containsIdx reports membership in a point's (short) attraction-peer list.
func containsIdx(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// samplePool recycles the per-shard peer row of the sampled pass.
var samplePool = sync.Pool{New: func() any { return new(peerRows) }}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
