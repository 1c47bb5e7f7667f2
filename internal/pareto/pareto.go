// Package pareto is the multi-objective frontier subsystem behind the
// public geovmp.Frontier API: dominance and non-dominated sorting over
// arbitrary objective vectors, the quality indicators the multi-criteria
// placement literature reports (hypervolume, spread), knee-point selection,
// and the adaptive frontier driver that spends an evaluation budget where
// the front is least resolved (adaptive.go).
//
// Everything minimizes: callers flip signs for maximized quantities before
// handing vectors in. All algorithms are deterministic — the fronts, the
// indicator values and the drivers' wave schedules are pure functions of the
// input multiset, never of input order, map iteration or goroutine timing —
// which is what lets frontier results be pinned by golden files.
package pareto

import (
	"math"
	"slices"
)

// Point is one evaluated solution: a display name, an objective vector (all
// minimized) and the caller's index for mapping sort results back.
type Point struct {
	// Name labels the point in reports and breaks ordering ties, so it
	// should be unique within a set ("alpha=0.5000", "Net-aware").
	Name string
	// V is the objective vector, all components minimized.
	V []float64
}

// Dominates reports whether a Pareto-dominates b under minimization: a is
// no worse in every component and strictly better in at least one. Vectors
// of different lengths never dominate each other; NaN components never
// dominate and are never dominated (a NaN is "no information", not a win).
func Dominates(a, b []float64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	better := false
	for i := range a {
		if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
			return false
		}
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			better = true
		}
	}
	return better
}

// compareLex orders points by objective vector lexicographically, then by
// name — a total order on distinctly-named points, so every sort below is a
// pure function of the point multiset rather than of input order.
func compareLex(a, b *Point) int {
	n := min(len(a.V), len(b.V))
	for i := 0; i < n; i++ {
		switch {
		case a.V[i] < b.V[i]:
			return -1
		case a.V[i] > b.V[i]:
			return 1
		}
	}
	switch {
	case len(a.V) < len(b.V):
		return -1
	case len(a.V) > len(b.V):
		return 1
	}
	switch {
	case a.Name < b.Name:
		return -1
	case a.Name > b.Name:
		return 1
	}
	return 0
}

// NonDominatedSort partitions pts into non-domination ranks: fronts[0] are
// the Pareto-optimal points, fronts[1] the points dominated only by
// fronts[0], and so on (the fast-non-dominated-sort layering of NSGA-II).
// Each front holds indexes into pts ordered lexicographically by objective
// vector then name, so the result is deterministic under any permutation of
// the input.
func NonDominatedSort(pts []Point) (fronts [][]int) {
	n := len(pts)
	if n == 0 {
		return nil
	}
	// Canonical processing order makes the within-front ordering (and every
	// float comparison sequence) permutation-invariant.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return compareLex(&pts[a], &pts[b]) })

	rank := make([]int, n) // -1 while unranked
	for i := range rank {
		rank[i] = -1
	}
	remaining := n
	for level := 0; remaining > 0; level++ {
		// Peel: a point joins this level iff no still-unranked point
		// dominates it.
		var front []int
		for _, i := range order {
			if rank[i] >= 0 {
				continue
			}
			dominated := false
			for _, j := range order {
				if rank[j] == -1 && j != i && Dominates(pts[j].V, pts[i].V) {
					dominated = true
					break
				}
			}
			if !dominated {
				front = append(front, i)
			}
		}
		if len(front) == 0 {
			// Mutual non-comparability should always yield a non-empty
			// front; NaN-laden vectors are the only way here. Sweep them
			// into one final front rather than looping forever.
			for _, i := range order {
				if rank[i] == -1 {
					front = append(front, i)
				}
			}
		}
		for _, i := range front {
			rank[i] = level
		}
		remaining -= len(front)
		fronts = append(fronts, front)
	}
	return fronts
}

// Ranks returns each point's non-domination rank (0 = Pareto-optimal),
// aligned with pts.
func Ranks(pts []Point) []int {
	ranks := make([]int, len(pts))
	for level, front := range NonDominatedSort(pts) {
		for _, i := range front {
			ranks[i] = level
		}
	}
	return ranks
}

// Reference derives a hypervolume reference point from a point set: each
// component is the set's worst (largest) value plus margin times the
// component's range — the conventional "slightly beyond nadir" box bound. A
// zero range falls back to a small absolute offset so degenerate components
// still contribute nonzero extent. The same reference must be reused when
// comparing hypervolumes of competing sets.
func Reference(pts []Point, margin float64) []float64 {
	if len(pts) == 0 {
		return nil
	}
	d := len(pts[0].V)
	ref := make([]float64, d)
	for k := 0; k < d; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range pts {
			v := pts[i].V[k]
			if math.IsNaN(v) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if math.IsInf(hi, -1) { // all NaN
			ref[k] = 0
			continue
		}
		span := hi - lo
		if span <= 0 {
			span = math.Max(math.Abs(hi)*1e-3, 1e-9)
		}
		ref[k] = hi + margin*span
	}
	return ref
}

// Hypervolume returns the exact Lebesgue measure of the region dominated by
// pts and bounded by the reference point ref (minimization: the union of
// boxes [v, ref] over the non-dominated points lying inside ref). Points
// with any component at or beyond ref contribute nothing. The value is
// monotone: adding a point never decreases it, and adding a non-dominated
// point strictly inside ref strictly increases it.
//
// The implementation slices along the last objective (HSO): exact for any
// dimension, and comfortably fast for the frontier sizes this repo sweeps
// (tens of points, 2-4 objectives).
func Hypervolume(pts []Point, ref []float64) float64 {
	d := len(ref)
	if d == 0 {
		return 0
	}
	var vs [][]float64
	for i := range pts {
		v := pts[i].V
		if len(v) != d {
			continue
		}
		inside := true
		for k := range v {
			if math.IsNaN(v[k]) || v[k] >= ref[k] {
				inside = false
				break
			}
		}
		if inside {
			vs = append(vs, v)
		}
	}
	return hvRec(vs, ref, d)
}

// hvRec measures the first dim objectives of vs against ref. vs components
// are all strictly inside ref.
func hvRec(vs [][]float64, ref []float64, dim int) float64 {
	if len(vs) == 0 {
		return 0
	}
	if dim == 1 {
		best := math.Inf(1)
		for _, v := range vs {
			best = math.Min(best, v[0])
		}
		return ref[0] - best
	}
	// Slice along objective dim-1: ascending sweep over the distinct values;
	// the slab between consecutive values is dominated by exactly the points
	// at or below its lower edge, measured in the remaining dimensions.
	sorted := make([][]float64, len(vs))
	copy(sorted, vs)
	slices.SortFunc(sorted, func(a, b []float64) int {
		switch {
		case a[dim-1] < b[dim-1]:
			return -1
		case a[dim-1] > b[dim-1]:
			return 1
		}
		return 0
	})
	total := 0.0
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && sorted[hi][dim-1] == sorted[lo][dim-1] {
			hi++
		}
		upper := ref[dim-1]
		if hi < len(sorted) {
			upper = sorted[hi][dim-1]
		}
		thickness := upper - sorted[lo][dim-1]
		if thickness > 0 {
			total += thickness * hvRec(sorted[:hi], ref, dim-1)
		}
		lo = hi
	}
	return total
}

// normalize maps each point's objectives into [0,1] over the set's ranges
// (zero ranges map to 0). Callers pass frontier subsets so the scaling
// reflects the front, not the dominated bulk. NaN components are excluded
// from the ranges — matching Dominates/Reference/Hypervolume — and
// normalize to 1 (pessimistic), so a point with a NaN objective cannot
// poison a column or win the knee.
func normalize(pts []Point, idx []int) [][]float64 {
	if len(idx) == 0 {
		return nil
	}
	d := len(pts[idx[0]].V)
	lo := make([]float64, d)
	hi := make([]float64, d)
	for k := 0; k < d; k++ {
		lo[k], hi[k] = math.Inf(1), math.Inf(-1)
	}
	for _, i := range idx {
		for k, v := range pts[i].V {
			if math.IsNaN(v) {
				continue
			}
			lo[k] = math.Min(lo[k], v)
			hi[k] = math.Max(hi[k], v)
		}
	}
	out := make([][]float64, len(idx))
	for j, i := range idx {
		row := make([]float64, d)
		for k, v := range pts[i].V {
			switch span := hi[k] - lo[k]; {
			case math.IsNaN(v):
				row[k] = 1
			case span > 0:
				row[k] = (v - lo[k]) / span
			}
		}
		out[j] = row
	}
	return out
}

// Spread measures how evenly a frontier subset covers its extent: the mean
// absolute deviation of consecutive nearest-neighbor distances divided by
// their mean, over the normalized objective space (the distribution term of
// Deb's Delta indicator, generalized past two objectives via each point's
// nearest frontier neighbor). 0 is a perfectly uniform front; larger values
// mean clumping and holes. Fewer than three points have no spacing
// distribution and report 0.
func Spread(pts []Point, front []int) float64 {
	if len(front) < 3 {
		return 0
	}
	norm := normalize(pts, front)
	dists := make([]float64, len(norm))
	for i := range norm {
		best := math.Inf(1)
		for j := range norm {
			if i == j {
				continue
			}
			best = math.Min(best, euclid(norm[i], norm[j]))
		}
		dists[i] = best
	}
	mean := 0.0
	for _, d := range dists {
		mean += d
	}
	mean /= float64(len(dists))
	if mean <= 0 {
		return 0
	}
	dev := 0.0
	for _, d := range dists {
		dev += math.Abs(d - mean)
	}
	return dev / (mean * float64(len(dists)))
}

// Knee selects the frontier's knee point — the compromise solution the
// trade-off literature recommends when no objective weighting is given —
// and returns its index into pts (-1 for an empty front). On two-objective
// fronts it is the classic knee: the point furthest from the chord through
// the front's two extremes. In higher dimensions it is the point nearest
// the ideal corner of the normalized front (every objective at its frontier
// minimum). Ties break toward the lexicographically smaller point, keeping
// the choice deterministic.
func Knee(pts []Point, front []int) int {
	if len(front) == 0 {
		return -1
	}
	if len(front) == 1 {
		return front[0]
	}
	norm := normalize(pts, front)
	d := len(norm[0])
	bestJ := -1
	bestScore := math.Inf(-1)
	better := func(j int, score float64) bool {
		if score > bestScore {
			return true
		}
		if score < bestScore {
			return false
		}
		return bestJ >= 0 && compareLex(&pts[front[j]], &pts[front[bestJ]]) < 0
	}
	if d == 2 {
		// Extremes of the normalized front: min first objective and min
		// second objective; the knee maximizes distance below their chord.
		a, b := 0, 0
		for j := range norm {
			if norm[j][0] < norm[a][0] || (norm[j][0] == norm[a][0] && norm[j][1] < norm[a][1]) {
				a = j
			}
			if norm[j][1] < norm[b][1] || (norm[j][1] == norm[b][1] && norm[j][0] < norm[b][0]) {
				b = j
			}
		}
		ax, ay := norm[a][0], norm[a][1]
		bx, by := norm[b][0], norm[b][1]
		dx, dy := bx-ax, by-ay
		chord := math.Hypot(dx, dy)
		for j := range norm {
			var score float64
			if chord > 0 {
				// Signed distance from the chord; points toward the ideal
				// corner (below the chord) score positive.
				score = (dx*(ay-norm[j][1]) - dy*(ax-norm[j][0])) / chord
			}
			if better(j, score) {
				bestJ, bestScore = j, score
			}
		}
		return front[bestJ]
	}
	for j := range norm {
		score := -euclid(norm[j], make([]float64, d))
		if better(j, score) {
			bestJ, bestScore = j, score
		}
	}
	return front[bestJ]
}

func euclid(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
