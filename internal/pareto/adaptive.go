package pareto

import (
	"fmt"
	"math"
	"slices"
)

// Eval evaluates one wave of knob values and returns an objective vector
// per knob, aligned by index (all components minimized). The adaptive
// driver batches its refinements into waves precisely so an implementation
// backed by the experiment engine can run each wave as one grid — sharing
// compiled workloads and environments across every point of the wave.
type Eval func(knobs []float64) ([][]float64, error)

// AdaptiveConfig parameterizes the adaptive frontier driver. Every field
// must be set: geovmp.Frontier.Run is the one place that picks the grid,
// budget and wave sizes.
type AdaptiveConfig struct {
	// Lo and Hi bound the knob range; Hi must exceed Lo.
	Lo, Hi float64
	// Coarse is the size of the initial uniform grid, endpoints included
	// (at least 2: refinement needs an interval to bisect).
	Coarse int
	// Budget is the total number of knob evaluations, the coarse grid
	// included (at least 1; a budget below Coarse shrinks the grid). The
	// driver never exceeds it; it may stop under it when every remaining
	// interval is narrower than the bisection floor (Hi-Lo)/1000, which
	// scales with the range so narrow ranges refine as deep as [0, 1]
	// instead of stranding their budget.
	Budget int
	// WaveSize caps how many refinement points are scheduled per wave (at
	// least 1). Larger waves give the engine more cells to run
	// concurrently; smaller waves re-target more often.
	WaveSize int
}

// AdaptiveResult is the driver's outcome: every evaluated knob in ascending
// order with its objective vector, and how many waves it took.
type AdaptiveResult struct {
	Knobs  []float64
	Values [][]float64
	Waves  int
}

// KnobDecimals picks a display precision for a knob range: four decimals
// for ranges of order one, plus one per leading zero of a narrower range —
// enough to keep rendered knob values unique down to the adaptive driver's
// minimum bisection spacing of (hi-lo)/2000. Labels, report tables and CSV
// exports share it so no surface collapses distinct knobs.
func KnobDecimals(lo, hi float64) int {
	d := 4
	if span := hi - lo; span > 0 && span < 1 {
		d += int(math.Ceil(-math.Log10(span)))
	}
	return d
}

// UniformGrid returns n evenly spaced knobs over [lo, hi], endpoints
// included — the fixed-grid baseline the adaptive driver is benchmarked
// against, and its own first wave.
func UniformGrid(lo, hi float64, n int) []float64 {
	if n < 1 {
		return nil
	}
	if n == 1 {
		return []float64{(lo + hi) / 2}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// Adaptive resolves a trade-off frontier over a scalar knob by spending an
// evaluation budget where the front is least resolved. Wave 0 is a coarse
// uniform grid; every later wave bisects the knob intervals whose endpoint
// objective vectors span the largest normalized hypervolume gap — the
// axis-aligned box between the two vectors, scaled by the current objective
// ranges — provided at least one endpoint sits on the current Pareto front.
// Intervals between two dominated points cannot move the front and are only
// bisected once nothing better remains.
//
// The schedule is deterministic: interval scores are pure functions of the
// evaluated set, ties break toward the lower knob, and each wave's points
// are handed to eval in ascending order.
func Adaptive(cfg AdaptiveConfig, eval Eval) (*AdaptiveResult, error) {
	switch {
	case !(cfg.Hi > cfg.Lo):
		return nil, fmt.Errorf("pareto: adaptive knob range [%v, %v] is empty", cfg.Lo, cfg.Hi)
	case cfg.Coarse < 2:
		return nil, fmt.Errorf("pareto: adaptive coarse grid of %d points: need at least two", cfg.Coarse)
	case cfg.Budget < 1 || cfg.WaveSize < 1:
		return nil, fmt.Errorf("pareto: adaptive budget %d and wave size %d must be at least 1", cfg.Budget, cfg.WaveSize)
	}
	minGap := (cfg.Hi - cfg.Lo) / 1000
	res := &AdaptiveResult{}
	evalWave := func(knobs []float64) error {
		if len(knobs) == 0 {
			return nil
		}
		vals, err := eval(knobs)
		if err != nil {
			return err
		}
		if len(vals) != len(knobs) {
			return fmt.Errorf("pareto: eval returned %d vectors for %d knobs", len(vals), len(knobs))
		}
		res.merge(knobs, vals)
		res.Waves++
		return nil
	}

	coarse := cfg.Coarse
	if coarse > cfg.Budget {
		coarse = cfg.Budget
	}
	if err := evalWave(UniformGrid(cfg.Lo, cfg.Hi, coarse)); err != nil {
		return nil, err
	}

	for len(res.Knobs) < cfg.Budget {
		want := cfg.Budget - len(res.Knobs)
		if want > cfg.WaveSize {
			want = cfg.WaveSize
		}
		next := nextWave(res, minGap, want)
		if len(next) == 0 {
			break // every interval is resolved down to minGap
		}
		if err := evalWave(next); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// merge folds one evaluated wave into the ascending knob order, so
// refinements interleave into the grid. Waves arrive ascending (the
// uniform grid, nextWave's sorted midpoints), so the merge runs from the
// back; an existing knob stays before an equal new one.
func (r *AdaptiveResult) merge(knobs []float64, vals [][]float64) {
	i, j := len(r.Knobs)-1, len(knobs)-1
	r.Knobs = append(r.Knobs, knobs...)
	r.Values = append(r.Values, vals...)
	for k := len(r.Knobs) - 1; j >= 0; k-- {
		if i >= 0 && r.Knobs[i] > knobs[j] {
			r.Knobs[k], r.Values[k] = r.Knobs[i], r.Values[i]
			i--
		} else {
			r.Knobs[k], r.Values[k] = knobs[j], vals[j]
			j--
		}
	}
}

// nextWave picks up to want bisection midpoints from the current evaluated
// set: the knob intervals with the largest frontier gap scores, each wider
// than minGap.
func nextWave(res *AdaptiveResult, minGap float64, want int) []float64 {
	n := len(res.Knobs)
	if n < 2 || want < 1 {
		return nil
	}
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{Name: fmt.Sprintf("k%06d", i), V: res.Values[i]}
	}
	ranks := Ranks(pts)

	// Objective ranges over the evaluated set normalize the gap boxes so no
	// objective's units dominate the score. NaN values are excluded — as in
	// Reference and normalize — so one NaN point cannot poison an
	// objective's span and silently drop it from every gap score.
	d := len(res.Values[0])
	span := make([]float64, d)
	for k := 0; k < d; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range res.Values {
			if v := res.Values[i][k]; !math.IsNaN(v) {
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
		}
		span[k] = hi - lo
	}

	type gap struct {
		mid   float64
		score float64
	}
	var gaps []gap
	for i := 0; i+1 < n; i++ {
		width := res.Knobs[i+1] - res.Knobs[i]
		if width <= minGap {
			continue
		}
		// The gap score is the normalized volume of the box spanned by the
		// two endpoint vectors — the hypervolume the front could gain (or
		// lose to a hole) inside this interval. Intervals not touching the
		// current front are deferred: bisecting them cannot extend the
		// front. The knob width joins as a tiny tiebreaker so flat regions
		// still resolve widest-first.
		vol := 1.0
		for k := 0; k < d; k++ {
			if edge := math.Abs(res.Values[i+1][k] - res.Values[i][k]); span[k] > 0 && !math.IsNaN(edge) {
				vol *= edge / span[k]
			}
		}
		score := vol + 1e-9*width
		if ranks[i] != 0 && ranks[i+1] != 0 {
			score *= 1e-6
		}
		gaps = append(gaps, gap{mid: res.Knobs[i] + width/2, score: score})
	}
	if len(gaps) == 0 {
		return nil
	}
	slices.SortStableFunc(gaps, func(a, b gap) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.mid < b.mid:
			return -1
		case a.mid > b.mid:
			return 1
		}
		return 0
	})
	if len(gaps) > want {
		gaps = gaps[:want]
	}
	mids := make([]float64, len(gaps))
	for i, g := range gaps {
		mids[i] = g.mid
	}
	slices.Sort(mids)
	return mids
}
