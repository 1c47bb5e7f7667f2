// Package simd holds the five hot loops of the simulator in a vectorised
// form: the embedding's dense pair pass (one row of Eq. 6/7's all-pairs
// sweep), the sampled mode's repulsion pass (one point's drawn peers), the
// packed CPU-load correlation scan, and the two halves of the synthetic
// workload's utilization rows — the diurnal cosine of a service's row and
// one lattice segment of a VM's row. Each comes as a pure-Go reference loop
// (ExactGo, SampledGo, PeakCorrGo, DiurnalGo, UtilRowGo), which is both the
// portable fallback and the bit-for-bit oracle, and a dispatcher
// (Row.Exact, Draw.Sampled, PeakCorr, Diurnal, UtilRow) that runs an AVX2
// kernel on amd64 CPUs that support it.
//
// The kernels keep every scalar operation of the reference loops in the same
// order — no FMA, no reassociated sums — so they agree with them bit for bit;
// they only give back to the caller the cases the loops treat specially (a
// coincident pair, a slow-row partner, a cosine argument outside the
// Cody–Waite range). The CPU is probed once at start-up; building with the
// purego tag leaves the Go loops as the only path.
package simd

import (
	"math"

	"geovmp/internal/rng"
	"geovmp/internal/units"
)

// Row is one row i of the exact embedding's pair pass: point i at (X, Y)
// against its partners j > i, partner k of the row being point i+1+k. The
// pair slices hold the row's upper-triangle entries of the dense caches,
// the partner slices the partners' positions and force accumulators; every
// slice is at least len(Px) long. Cost, FX and FY carry the pass cost and
// point i's force across calls and rows.
type Row struct {
	X, Y   float64
	Px, Py []float64 // partner positions
	Fx, Fy []float64 // partner force accumulators
	Sft    []float64 // symmetric pair force, the cost weight of Eq. 7
	PrevD  []float64 // pair distance at the previous pass, replaced by this one's
	Wft    []float64 // weighted force on point i by the partner
	WftT   []float64 // weighted force on the partner by point i

	Cost, FX, FY float64
}

// Exact runs the row's pairs from k on, as ExactGo does, but may stop
// sooner: the AVX2 kernel runs whole groups of four pairs and returns before
// a group that holds a coincident pair and before a tail of fewer than four.
// The pairs it runs are bit-identical to ExactGo's; the caller finishes a
// group it stops before with Pairs and calls it again.
func (r *Row) Exact(k int) int { return r.exact(k) }

// ExactGo runs the row's pairs from k on in ascending order and returns the
// index of the first pair it did not run: the first coincident pair
// (distance under 1e-9), whose direction the caller must supply through
// Pairs, or len(r.Px). It is the reference loop of Exact.
//
// A pair at distance d adds Sft*(d-PrevD) to Cost, stores d in PrevD, and,
// along the unit direction (ux, uy) from the partner to point i, adds
// Wft*(ux, uy) to (FX, FY) and takes WftT*(ux, uy) off the partner's force.
func (r *Row) ExactGo(k int) int { return r.run(k, len(r.Px)) }

// run is ExactGo stopping at end.
func (r *Row) run(k, end int) int {
	if end > r.rowLen() {
		panic("simd: pair index past the row")
	}
	// Locals of one length, so the loop neither reloads the slice headers
	// after every store nor checks bounds.
	px := r.Px[:end]
	x, y, py, fx, fy := r.X, r.Y, r.Py[:len(px)], r.Fx[:len(px)], r.Fy[:len(px)]
	sft, prevD, wft, wftT := r.Sft[:len(px)], r.PrevD[:len(px)], r.Wft[:len(px)], r.WftT[:len(px)]
	cost, fx0, fy0 := r.Cost, r.FX, r.FY
	for ; k < len(px); k++ {
		dx := x - px[k]
		dy := y - py[k]
		d := math.Sqrt(dx*dx + dy*dy)
		if d < 1e-9 {
			break
		}
		ux, uy := dx/d, dy/d
		cost += sft[k] * (d - prevD[k])
		prevD[k] = d
		fij, fji := wft[k], wftT[k]
		fx0 += fij * ux
		fy0 += fij * uy
		fx[k] -= fji * ux
		fy[k] -= fji * uy
	}
	r.Cost, r.FX, r.FY = cost, fx0, fy0
	return k
}

// Pairs runs pairs k..end-1 of the row as ExactGo does, except that a
// coincident pair, instead of stopping the run, takes its unit direction
// from dir. It returns end.
func (r *Row) Pairs(k, end int, dir func(k int) (ux, uy float64)) int {
	for k = r.run(k, end); k < end; k = r.run(k+1, end) {
		dx := r.X - r.Px[k]
		dy := r.Y - r.Py[k]
		d := math.Sqrt(dx*dx + dy*dy)
		ux, uy := dir(k)
		r.Cost += r.Sft[k] * (d - r.PrevD[k])
		r.PrevD[k] = d
		r.FX += r.Wft[k] * ux
		r.FY += r.Wft[k] * uy
		r.Fx[k] -= r.WftT[k] * ux
		r.Fy[k] -= r.WftT[k] * uy
	}
	return end
}

// rowLen returns the row's pair count, panicking if a slice is short of it:
// the kernel and run's bounds-check-free loop trust the lengths.
func (r *Row) rowLen() int {
	m := len(r.Px)
	for _, s := range [...][]float64{r.Py, r.Fx, r.Fy, r.Sft, r.PrevD, r.Wft, r.WftT} {
		if len(s) < m {
			panic("simd: Row slice shorter than Px")
		}
	}
	return m
}

// Draw is one point's sampled repulsion row: the point at (X, Y) against
// its drawn peers J, peer k being point J[k] at (Px[J[k]], Py[J[k]]) with
// force F[k]. Only forces that are not <= 0 repel (a NaN force does), each
// scaled by Scale; FX and FY carry the point's force across calls. F is at
// least len(J) long and Py at least len(Px).
type Draw struct {
	X, Y   float64
	Px, Py []float64 // every point's position, indexed by peer
	J      []int32   // the drawn peers
	F      []float64 // their forces
	Scale  float64
	FX, FY float64
}

// Sampled runs the draw's peers from k on, as SampledGo does, but may stop
// sooner: the AVX2 kernel runs whole groups of four peers and returns before
// a group that holds a coincident repelling peer or a peer outside Px, and
// before a tail of fewer than four. The peers it runs are bit-identical to
// SampledGo's; the caller finishes a group it stops before with Pairs and
// calls it again.
func (d *Draw) Sampled(k int) int { return d.sampled(k) }

// SampledGo runs the draw's peers from k on in ascending order and returns
// the index of the first peer it did not run: the first repelling peer at
// distance under 1e-9, whose direction the caller must supply through
// Pairs, or len(d.J). It is the reference loop of Sampled.
//
// A repelling peer at distance r along (dx, dy) from the peer to the point
// adds ((F*Scale)*dx)/r to FX and ((F*Scale)*dy)/r to FY.
func (d *Draw) SampledGo(k int) int { return d.run(k, len(d.J)) }

// run is SampledGo stopping at end.
func (d *Draw) run(k, end int) int {
	j := d.J[:end]
	f := d.F[:len(j)]
	x, y, px, py, scale := d.X, d.Y, d.Px, d.Py[:len(d.Px)], d.Scale
	fx, fy := d.FX, d.FY
	for ; k < len(j); k++ {
		if f[k] <= 0 {
			continue
		}
		dx := x - px[j[k]]
		dy := y - py[j[k]]
		r := math.Sqrt(dx*dx + dy*dy)
		if r < 1e-9 {
			break
		}
		fx += f[k] * scale * dx / r
		fy += f[k] * scale * dy / r
	}
	d.FX, d.FY = fx, fy
	return k
}

// Pairs runs peers k..end-1 of the draw as SampledGo does, except that a
// coincident repelling peer, instead of stopping the run, takes its unit
// direction from dir (at the unit distance, so its division drops out). It
// returns end.
func (d *Draw) Pairs(k, end int, dir func(k int) (ux, uy float64)) int {
	for k = d.run(k, end); k < end; k = d.run(k+1, end) {
		ux, uy := dir(k)
		d.FX += d.F[k] * d.Scale * ux
		d.FY += d.F[k] * d.Scale * uy
	}
	return end
}

// drawLen returns the draw's peer count, panicking if F or Py is short:
// the kernel trusts the lengths.
func (d *Draw) drawLen() int {
	if len(d.F) < len(d.J) || len(d.Py) < len(d.Px) {
		panic("simd: Draw slice shorter than J or Px")
	}
	return len(d.J)
}

// SlowRow is the peak of a packed record whose pairs PeakCorr leaves to the
// caller. Real peaks are never negative, so it cannot collide with one.
const SlowRow = -1

// Bit patterns of the peak coincidence's clamp bound and neutral value:
// 1e-9 and 0.5.
const (
	tinyBits = 0x3e112e0be826d695
	halfBits = 0x3fe0000000000000
)

// PeakCorr fills dst[k] with the CPU-load peak coincidence of row a, whose
// peak is peakA, and the packed record of partner js[k]: rec[j*stride] holds
// the partner's peak and the len(a) entries after it its samples, stride >
// len(a). The combined peak is taken as an integer max of bit patterns, so
// samples must be clean (+0, positive or +Inf) unless a peak is -Inf, which
// makes the pair's value the neutral 0.5 whatever the samples hold. It
// stops before a partner whose peak is SlowRow and returns the number of
// partners done. The AVX2 kernel runs four partners per step and, since
// js is known before the scan starts, prefetches records a few partners
// ahead of the one it scans.
func PeakCorr(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int {
	return peakCorr(dst[:len(js)], a, peakA, rec, stride, js)
}

// PeakCorrGo is the reference loop of PeakCorr.
func PeakCorrGo(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int {
	// Partner records are loaded one pair ahead: the next partner's peak is
	// read before this pair's scan, so its cache miss overlaps the scan
	// instead of following it.
	var next float64
	if len(js) > 0 {
		next = rec[int(js[0])*stride]
	}
	for k, j := range js {
		peakB := next
		if k+1 < len(js) {
			next = rec[int(js[k+1])*stride]
		}
		if peakB == SlowRow {
			return k
		}
		b := rec[int(j)*stride+1 : int(j)*stride+1+len(a)]
		// Four independent maxima (max is order-insensitive), starting
		// from +0 like PeakCoincidence's.
		var m0, m1, m2, m3 uint64
		t := 0
		for ; t+3 < len(a); t += 4 {
			m0 = max(m0, math.Float64bits(a[t]+b[t]))
			m1 = max(m1, math.Float64bits(a[t+1]+b[t+1]))
			m2 = max(m2, math.Float64bits(a[t+2]+b[t+2]))
			m3 = max(m3, math.Float64bits(a[t+3]+b[t+3]))
		}
		for ; t < len(a); t++ {
			m0 = max(m0, math.Float64bits(a[t]+b[t]))
		}
		// The clamp and the neutral value select bit patterns, which the
		// compiler emits as conditional moves: which case a pair lands in
		// is data the branch predictor cannot learn. Other kernels also
		// clamp at 1, but over clean rows every sum is at most
		// fl(peakA+peakB) = den (rounded addition is monotone), so c never
		// exceeds 1 here.
		den := peakA + peakB
		c := math.Float64frombits(max(m0, m1, m2, m3)) / den
		bits := math.Float64bits(c)
		if c < 1e-9 {
			bits = tinyBits
		}
		if !(den > 0) {
			// A missing profile, or both rows all zero.
			bits = halfBits
		}
		dst[k] = math.Float64frombits(bits)
	}
	return len(js)
}

// Diurnal fills dst[k] with the diurnal cosine of a service peaking at hour
// peak at hour of day hours[k], math.Cos((hours[k]-peak)/24*2*math.Pi), for
// every k < len(dst); hours is at least len(dst) long. The AVX2 kernel
// follows math.Cos operation for operation — the truncated octant, the odd
// octant mapped to the origin, the three-part Cody–Waite reduction, both
// polynomials blended by octant and the sign flip — so it agrees with it
// bit for bit; a group of four whose arguments hold a NaN, an infinity or a
// magnitude of at least 2^29 (math.Cos's Payne–Hanek range) runs on the Go
// loop.
func Diurnal(dst, hours []float64, peak float64) { diurnal(dst, hours[:len(dst)], peak) }

// DiurnalGo is the reference loop of Diurnal.
func DiurnalGo(dst, hours []float64, peak float64) {
	hours = hours[:len(dst)]
	for k, h := range hours {
		dst[k] = math.Cos((h - peak) / 24 * 2 * math.Pi)
	}
}

// Util is one segment of a VM's utilization row: a run of steps over which
// the VM's day factor and the cells of both its smooth-noise lattices stay
// fixed, so only the per-step columns vary. Step k of the segment reads
// Diurnal[k] (the service's diurnal cosine), SlowEase[k] and BurstEase[k]
// (the lattice ease weights) and Keys[k] (the step's pre-mixed noise key).
// A BurstAmp that is not > 0 turns the burst term off, and BurstEase is
// then not read.
type Util struct {
	Mean, Amp, DayF       float64 // diurnal base: (Mean + Amp*cos) * DayF
	SlowA, SlowB, SlowAmp float64 // slow noise: the cell's lattice ends and amplitude
	FastKey               uint64  // white noise: the VM's hash prefix
	FastAmp               float64
	BurstA, BurstB        float64 // bursts: the cell's lattice ends
	BurstAmp              float64

	Diurnal, SlowEase, BurstEase []float64
	Keys                         []uint64
}

// UtilRow fills dst[k] with step k of the segment's utilization for every
// k < len(dst), as UtilRowGo does; every column is at least len(dst) long,
// and Diurnal may alias dst. The AVX2 kernel runs four steps at a time,
// splitting the hash's 64-bit multiplies into 32-bit halves and its 53-bit
// conversion into two exact halves, and takes the burst and the clamp by
// compare and blend.
func UtilRow(dst []float64, u *Util) { u.row(dst) }

// UtilRowGo is the reference loop of UtilRow. Step k's utilization is the
// diurnal base plus the slow and the white noise, both centred and scaled
// to their amplitudes, plus BurstAmp when the burst noise exceeds 0.75,
// clamped to [0.02, 1].
func UtilRowGo(dst []float64, u *Util) { u.run(dst, 0) }

// run is UtilRowGo from step k on.
func (u *Util) run(dst []float64, k int) {
	d, se, keys := u.Diurnal[:len(dst)], u.SlowEase[:len(dst)], u.Keys[:len(dst)]
	burst := u.BurstAmp > 0
	var be []float64
	if burst {
		be = u.BurstEase[:len(dst)]
	}
	for ; k < len(dst); k++ {
		base := u.Mean + u.Amp*d[k]
		base *= u.DayF
		slow := (rng.Blend(u.SlowA, u.SlowB, se[k]) - 0.5) * 2 * u.SlowAmp
		fast := (rng.Unit(rng.FoldKey(u.FastKey, keys[k])) - 0.5) * 2 * u.FastAmp
		x := base + slow + fast
		if burst && rng.Blend(u.BurstA, u.BurstB, be[k]) > 0.75 {
			x += u.BurstAmp
		}
		dst[k] = units.Clamp(x, 0.02, 1)
	}
}
