//go:build amd64 && !purego

package simd

// AVX2 reports whether the dispatchers run the AVX2 kernels: the CPU has
// AVX2 and the operating system saves the YMM registers.
var AVX2 = hasAVX2()

// hasAVX2 probes the CPU once: CPUID leaf 1 for OSXSAVE and AVX, XGETBV for
// the OS-enabled XMM and YMM state, CPUID leaf 7 for AVX2.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func exactAVX2(r *Row, k, m int) int

//go:noescape
func sampledAVX2(d *Draw, k, m int) int

//go:noescape
func peakCorrAVX2(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int

//go:noescape
func diurnalAVX2(dst, hours []float64, peak float64, k int) int

//go:noescape
func utilRowAVX2(dst []float64, u *Util, burst bool) int

func (r *Row) exact(k int) int {
	if !AVX2 {
		return r.ExactGo(k)
	}
	return exactAVX2(r, k, r.rowLen())
}

func (d *Draw) sampled(k int) int {
	if !AVX2 {
		return d.SampledGo(k)
	}
	return sampledAVX2(d, k, d.drawLen())
}

// peakCorr runs the kernel as far as it goes and the rest on the Go loop:
// the kernel stops before a group of fewer than four partners or one that
// holds a partner outside rec or a SlowRow one, and the Go loop stops
// before (or panics at) that partner.
func peakCorr(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int {
	if !AVX2 || stride <= len(a) {
		return PeakCorrGo(dst, a, peakA, rec, stride, js)
	}
	k := peakCorrAVX2(dst, a, peakA, rec, stride, js)
	return k + PeakCorrGo(dst[k:], a, peakA, rec, stride, js[k:])
}

// diurnal runs the kernel as far as it goes, each group it stops before on
// the Go loop, and the tail of fewer than four on the Go loop.
func diurnal(dst, hours []float64, peak float64) {
	if !AVX2 {
		DiurnalGo(dst, hours, peak)
		return
	}
	for k := 0; k < len(dst); {
		k = diurnalAVX2(dst, hours, peak, k)
		end := min(k+4, len(dst))
		DiurnalGo(dst[k:end], hours[k:end], peak)
		k = end
	}
}

// row runs the kernel over the whole groups of four and the Go loop over
// the tail.
func (u *Util) row(dst []float64) {
	if !AVX2 {
		u.run(dst, 0)
		return
	}
	n := len(dst)
	burst := u.BurstAmp > 0
	if len(u.Diurnal) < n || len(u.SlowEase) < n || len(u.Keys) < n || burst && len(u.BurstEase) < n {
		panic("simd: Util column shorter than dst")
	}
	u.run(dst, utilRowAVX2(dst, u, burst))
}
