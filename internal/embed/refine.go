package embed

import (
	"math"
	"slices"

	"geovmp/internal/rng"
)

// RefineOne is the incremental counterpart of Run for a single arriving
// point: with the rest of the layout frozen, it iterates Eq. 6 on id alone —
// exact attraction against peers, the ids data-correlated with id (the
// caller keeps that adjacency), and repulsion estimated from SampleK hashed
// partners per iteration as in the sampled mode — and returns the refined
// position after cfg.MaxIters iterations, each moved by Run's per-point
// step. Only id's row of the force field is
// ever evaluated, so the cost is O(MaxIters x (degree + SampleK))
// regardless of fleet size: this is what lets a streaming controller seat
// one arrival without re-running the global embedding (a background
// reconciler restores the full-fidelity layout periodically).
//
// p is id's seed position. pos is the frozen layout as a dense table
// indexed by id, which must hold a position for every id in peers and
// others. peers must name every point of others that exchanges data with
// id: a sampled point outside it is taken to exchange none, so only its
// Repulsion is evaluated. others lists the resident points id may be
// repelled by, in any caller-deterministic order. The result is a pure
// function of the arguments.
func RefineOne(id int, p Point, peers, others []int, pos []Point, field Field, cfg Config) Point {
	cfg.applyDefaults()
	n := len(others) + 1
	if n < 2 {
		return p
	}
	rw := repulsionWeight(n)
	scale := float64(n-1) / float64(cfg.SampleK) * rw
	keys := sampleKeys(cfg.SampleK)
	for iter := 0; iter < cfg.MaxIters; iter++ {
		// Sample k of this iteration is Hash(Seed, id, iter, k) mod n, the
		// fold of the iteration's prefix with the pre-mixed key k.
		prefix := rng.Hash(cfg.Seed, uint64(id), uint64(iter))
		var fxv, fyv float64
		pull := func(q Point, f float64) {
			dx := p.X - q.X
			dy := p.Y - q.Y
			d := math.Sqrt(dx*dx + dy*dy)
			if d < 1e-9 {
				ang := rng.Noise01(cfg.Seed, uint64(id), 0x1F1, uint64(iter)) * 2 * math.Pi
				dx, dy, d = math.Cos(ang), math.Sin(ang), 1
			}
			fxv += f * dx / d
			fyv += f * dy / d
		}
		// Exact attraction over the sparse peer set; repulsive components of
		// peer forces carry the same class weight the full modes apply.
		for _, peer := range peers {
			if peer == id {
				continue
			}
			pull(pos[peer], weighted(field.Force(id, peer), rw))
		}
		// Sampled repulsion over the rest of the fleet.
		for _, key := range keys {
			j := others[rng.FoldKey(prefix, key)%uint64(len(others))]
			if j == id || slices.Contains(peers, j) {
				continue // self, or already handled exactly above
			}
			f := field.Repulsion(id, j) // no data: j is not a peer
			if f <= 0 {
				continue // attraction is exact over peers only
			}
			pull(pos[j], f*scale)
		}
		p.X, p.Y = step(p.X, p.Y, fxv, fyv)
	}
	return p
}

// defaultKeys holds the pre-mixed keys of the default SampleK's sample
// indices, shared read-only by RefineOne and the sampler.
var defaultKeys = premixedKeys(defaultSampleK)

// sampleKeys returns rng.Key(k) for the sample indices k below n, so a draw
// folds each sample into its hash prefix without mixing the key again.
func sampleKeys(n int) []uint64 {
	if n <= len(defaultKeys) {
		return defaultKeys[:max(n, 0)]
	}
	return premixedKeys(n)
}

func premixedKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for k := range keys {
		keys[k] = rng.Key(uint64(k))
	}
	return keys
}
