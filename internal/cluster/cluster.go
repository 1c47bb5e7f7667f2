// Package cluster implements the second step of the paper's global phase:
// the modified k-means that groups embedded VM points into one cluster per
// data center, subject to each DC's energy capacity cap.
//
// The modifications to textbook k-means (Sect. IV-B.1, step 2):
//
//   - k is fixed to the number of DCs, and cluster c's total assigned VM
//     load (predicted slot energy, Joules) should respect Caps[c] — the cap
//     derived from battery state, renewable forecast and grid price.
//   - Initial centroids come from the previous slot's final positions
//     ("the initial centroid of each cluster is calculated based on the
//     last position of points available in that cluster in the previous
//     time slot"), which stabilizes assignments across slots and keeps
//     migration churn low.
//   - Network latency is deliberately ignored here; the migration revision
//     step (package migrate) enforces it.
//
// Capacity handling: points are assigned in descending load order, each to
// the nearest centroid with remaining cap; when no cluster has room the
// point overflows to the cluster with the largest remaining (least
// violated) cap. Caps are therefore soft targets exactly like the paper's
// "capacity cap", with feasibility restored by the later migration step and
// the local allocator.
package cluster

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"geovmp/internal/embed"
	"geovmp/internal/par"
)

// Item is one VM to cluster.
type Item struct {
	ID   int
	Pos  embed.Point
	Load float64 // predicted slot energy, Joules
	// Current is the cluster the item sits in today, or -1 when it has
	// none; Config.Stick discounts the distance to it.
	Current int
}

// Config tunes the clustering.
type Config struct {
	K        int           // number of clusters (DCs)
	Caps     []float64     // per-cluster capacity caps, Joules (len K)
	Init     []embed.Point // initial centroids (len K); zero value -> spread
	MaxIters int           // iteration cap, stated by every caller (0 runs none)
	// Stick in (0, 1] multiplies an item's distance to its Current
	// cluster's centroid, making staying cheaper than moving — migration
	// hysteresis. 0 or 1 disables the bias.
	Stick float64
	// Workers optionally lends extra goroutines to the per-iteration
	// item-to-centroid distance computation (the sqrt-heavy part of the
	// assignment step). Distances are written disjointly per item, so
	// results are bit-identical at any worker count; the capacity-aware
	// assignment itself stays serial — it is order-dependent by design.
	Workers *par.Budget
}

// converge ends the iteration once the centroids, summed over clusters,
// move less than this far in one iteration.
const converge = 1e-3

// Result is the clustering outcome.
type Result struct {
	Assign    []int         // cluster index per item, in item order
	Centroids []embed.Point // final centroids
	LoadPer   []float64     // total assigned load per cluster
	Iters     int
}

// DistToCentroid returns the distance from an item's position to cluster
// c's final centroid; the migration step sorts its queues with this.
func (r *Result) DistToCentroid(pos embed.Point, c int) float64 {
	return embed.Dist(pos, r.Centroids[c])
}

// Run clusters items into cfg.K capacity-capped clusters. It panics if K
// and the caps/init lengths disagree; callers own the configuration.
func Run(items []Item, cfg Config) Result {
	if cfg.K <= 0 {
		panic("cluster: K must be positive")
	}
	if len(cfg.Caps) != cfg.K {
		panic("cluster: len(Caps) != K")
	}
	cents := make([]embed.Point, cfg.K)
	if len(cfg.Init) == cfg.K {
		copy(cents, cfg.Init)
	} else {
		// Spread centroids on a circle; deterministic and seed-free.
		for c := 0; c < cfg.K; c++ {
			ang := 2 * math.Pi * float64(c) / float64(cfg.K)
			cents[c] = embed.Point{X: 8 * math.Cos(ang), Y: 8 * math.Sin(ang)}
		}
	}

	// Assign in descending load order so the big consumers grab capacity
	// near their preferred centroid first (the standard capped-clustering
	// device; ties broken by id for determinism). The sort runs over
	// compact keys rather than whole items, and the assignment walk reads
	// them in place of the items.
	type key struct {
		load     float64
		id       int
		idx, cur int32
	}
	order := make([]key, len(items))
	for i, it := range items {
		order[i] = key{it.Load, it.ID, int32(i), int32(it.Current)}
	}
	slices.SortFunc(order, func(a, b key) int {
		switch {
		case a.load > b.load:
			return -1
		case a.load < b.load:
			return 1
		}
		return cmp.Compare(a.id, b.id)
	})

	assign := make([]int, len(items))
	// Per-iteration item-to-centroid distances, hoisted out of the serial
	// assignment loop: distances depend on positions and centroids but not
	// on the evolving loads, so they are computed in one sharded pass
	// (disjoint writes per item — bit-identical at any worker count) and
	// the order-dependent assignment below just reads them. The buffer is
	// pooled: Run executes once per slot per cell, and a fresh
	// items x K array every simulated hour would be a steady-state
	// allocation on the hot path.
	const distGrain = 64
	distBuf := distPool.Get().(*[]float64)
	defer distPool.Put(distBuf)
	if need := len(items) * cfg.K; cap(*distBuf) < need {
		*distBuf = make([]float64, need)
	} else {
		*distBuf = (*distBuf)[:need]
	}
	dists := *distBuf
	res := Result{}
	var loads []float64
	for iter := 0; iter < cfg.MaxIters; iter++ {
		res.Iters = iter + 1
		par.For(cfg.Workers, len(items), distGrain, func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				pos := items[idx].Pos
				row := dists[idx*cfg.K : (idx+1)*cfg.K]
				for c := 0; c < cfg.K; c++ {
					row[c] = embed.Dist(pos, cents[c])
				}
			}
		})
		loads = make([]float64, cfg.K)
		for _, o := range order {
			idx := int(o.idx)
			best := -1
			bestD := math.Inf(1)
			for c := 0; c < cfg.K; c++ {
				if loads[c]+o.load > cfg.Caps[c] {
					continue
				}
				d := dists[idx*cfg.K+c]
				if cfg.Stick > 0 && cfg.Stick < 1 && c == int(o.cur) {
					d *= cfg.Stick
				}
				if d < bestD {
					bestD = d
					best = c
				}
			}
			if best < 0 {
				// Every cluster full: overflow to the most remaining cap.
				bestRem := math.Inf(-1)
				for c := 0; c < cfg.K; c++ {
					if rem := cfg.Caps[c] - loads[c]; rem > bestRem {
						bestRem = rem
						best = c
					}
				}
			}
			assign[idx] = best
			loads[best] += o.load
		}

		// Recompute centroids; empty clusters keep their position.
		next := make([]embed.Point, cfg.K)
		counts := make([]int, cfg.K)
		for i, it := range items {
			c := assign[i]
			next[c].X += it.Pos.X
			next[c].Y += it.Pos.Y
			counts[c]++
		}
		var moved float64
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				next[c] = cents[c]
				continue
			}
			next[c].X /= float64(counts[c])
			next[c].Y /= float64(counts[c])
			moved += embed.Dist(next[c], cents[c])
		}
		cents = next
		if moved < converge {
			break
		}
	}
	res.Assign = assign
	res.Centroids = cents
	res.LoadPer = loads
	return res
}

// distPool recycles Run's per-call distance buffers across slots.
var distPool = sync.Pool{New: func() any { return new([]float64) }}

// CentroidsOf recomputes centroids for an externally-supplied assignment,
// assign[i] being item i's cluster (out-of-range entries are skipped) — the
// hook for carrying "last position of points available in that cluster"
// into the next slot's Config.Init.
func CentroidsOf(items []Item, assign []int, k int, fallback []embed.Point) []embed.Point {
	cents := make([]embed.Point, k)
	counts := make([]int, k)
	for i, it := range items {
		c := assign[i]
		if c < 0 || c >= k {
			continue
		}
		cents[c].X += it.Pos.X
		cents[c].Y += it.Pos.Y
		counts[c]++
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			if len(fallback) == k {
				cents[c] = fallback[c]
			}
			continue
		}
		cents[c].X /= float64(counts[c])
		cents[c].Y /= float64(counts[c])
	}
	return cents
}
