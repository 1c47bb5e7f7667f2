//go:build !amd64 || purego

package simd

// AVX2 reports whether the dispatchers run the AVX2 kernels: never in this
// build.
const AVX2 = false

func (r *Row) exact(k int) int { return r.ExactGo(k) }

func (d *Draw) sampled(k int) int { return d.SampledGo(k) }

func peakCorr(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int {
	return PeakCorrGo(dst, a, peakA, rec, stride, js)
}

func diurnal(dst, hours []float64, peak float64) { DiurnalGo(dst, hours, peak) }

func (u *Util) row(dst []float64) { u.run(dst, 0) }
