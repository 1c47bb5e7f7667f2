// Package metrics provides the statistical containers the simulator fills
// and the report layer reads: streaming summaries, fixed-bin histograms
// (Fig. 3 is a probability density of normalized response time) and named
// time series (Fig. 2 is an hourly energy series).
package metrics

import (
	"fmt"
	"math"
)

// Summary accumulates streaming count/mean/variance/min/max via Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the population variance (0 when fewer than 2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Std returns the population standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Max returns the largest observation (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// String implements fmt.Stringer.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g", s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Histogram is a fixed-range, fixed-bin-count histogram. Out-of-range
// samples clamp into the edge bins so no observation is lost.
type Histogram struct {
	lo, hi float64
	bins   []int
	total  int
}

// NewHistogram creates a histogram over [lo, hi) with n bins. It panics on
// degenerate arguments; callers control both.
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("metrics: degenerate histogram")
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]int, n)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	idx := int((x - h.lo) / (h.hi - h.lo) * float64(len(h.bins)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.bins) {
		idx = len(h.bins) - 1
	}
	h.bins[idx]++
	h.total++
}

// PDF returns the per-bin probability mass (sums to 1 when non-empty) and
// the bin centers.
func (h *Histogram) PDF() (centers, probs []float64) {
	centers = make([]float64, len(h.bins))
	probs = make([]float64, len(h.bins))
	w := (h.hi - h.lo) / float64(len(h.bins))
	for i, c := range h.bins {
		centers[i] = h.lo + (float64(i)+0.5)*w
		if h.total > 0 {
			probs[i] = float64(c) / float64(h.total)
		}
	}
	return centers, probs
}

// Series is a named sequence of (x, y) points, e.g. hourly energy.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Y) }

// MaxY returns the largest y value (0 when empty).
func (s *Series) MaxY() float64 {
	var m float64
	for i, v := range s.Y {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Downsample returns a new series with every group of k consecutive points
// averaged (tail partial group included). k<=1 returns a copy.
func (s *Series) Downsample(k int) *Series {
	if k <= 1 {
		return &Series{Name: s.Name, X: append([]float64(nil), s.X...), Y: append([]float64(nil), s.Y...)}
	}
	out := &Series{Name: s.Name}
	for i := 0; i < s.Len(); i += k {
		end := i + k
		if end > s.Len() {
			end = s.Len()
		}
		var sx, sy float64
		for j := i; j < end; j++ {
			sx += s.X[j]
			sy += s.Y[j]
		}
		n := float64(end - i)
		out.Append(sx/n, sy/n)
	}
	return out
}

// NormalizeByWorst divides every value by the maximum across the map,
// returning a new map; the paper normalizes Figs. 1 and 3 "by the worst-case
// value among the mentioned methods". An all-zero input returns zeros.
func NormalizeByWorst(vals map[string]float64) map[string]float64 {
	var worst float64
	for _, v := range vals {
		if v > worst {
			worst = v
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		if worst > 0 {
			out[k] = v / worst
		} else {
			out[k] = 0
		}
	}
	return out
}

// Improvement returns the relative improvement of ours vs theirs, positive
// when ours is lower (cost-like metrics): (theirs-ours)/theirs.
func Improvement(ours, theirs float64) float64 {
	if theirs == 0 {
		return 0
	}
	return (theirs - ours) / theirs
}
