// Package rng provides deterministic random number generation for the
// simulator.
//
// Everything in geovmp must replay bit-identically from a single seed so
// that experiments are reproducible and policies can be compared on exactly
// the same workload. The package offers two tools:
//
//   - Source: a splitmix64 sequential generator with derived sub-streams, so
//     independent subsystems (arrivals, traces, network errors, ...) consume
//     independent streams and adding draws to one subsystem never perturbs
//     another.
//   - Hash noise (Noise01, NoiseNorm): stateless pseudo-random values keyed
//     by integers, used to sample lazy workload traces at arbitrary
//     timestamps without storing them.
package rng

import "math"

// Source is a deterministic pseudo-random source based on splitmix64.
// The zero value is a valid source seeded with 0; prefer New.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Derive returns a new independent Source keyed by the parent seed and a
// stream label. Deriving is stable: the same parent seed and label always
// produce the same stream regardless of how much the parent has been used.
func (s *Source) Derive(label string) *Source {
	h := mix64(s.state ^ golden)
	for i := 0; i < len(label); i++ {
		h = mix64(h ^ uint64(label[i])*0x100000001b3)
	}
	return &Source{state: h}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal variate (Box-Muller).
func (s *Source) Norm() float64 {
	// Draw u1 in (0,1] to keep the log finite.
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormalFromMean returns a log-normal variate with the given *linear*
// mean and underlying log-domain variance sigma2. The paper draws inter-VM
// data volumes "by a log-normal distribution with the mean of 10 MB and
// uniform variance selection in the range of [1,4]"; this helper converts
// that parameterization (linear mean, log variance) into the usual (mu,
// sigma) pair: mean = exp(mu + sigma^2/2) => mu = ln(mean) - sigma^2/2.
func (s *Source) LogNormalFromMean(mean, sigma2 float64) float64 {
	if mean <= 0 {
		return 0
	}
	sigma := math.Sqrt(sigma2)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + sigma*s.Norm())
}

// Exp returns an exponential variate with the given mean. It panics if
// mean <= 0.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	return -mean * math.Log(1-s.Float64())
}

// Poisson returns a Poisson variate with the given rate lambda. For small
// lambda it uses Knuth's product method; for large lambda a normal
// approximation keeps it O(1).
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		// Normal approximation with continuity correction.
		v := lambda + math.Sqrt(lambda)*s.Norm() + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Categorical draws an index from the discrete distribution given by
// weights. Weights need not sum to 1; non-positive weights are treated as 0.
// It panics if all weights are non-positive or the slice is empty.
func (s *Source) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: Categorical with no positive weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// hashSeed is the initial state of Hash; golden is the splitmix64
// increment every key is offset by before mixing.
const (
	hashSeed = 0x2545f4914f6cdd1d
	golden   = 0x9e3779b97f4a7c15
)

// Hash combines an arbitrary number of integer keys into a single
// well-mixed 64-bit hash. It is the basis of the stateless noise functions.
// Hash(keys..., k) == Fold(Hash(keys...), k), so callers that vary only the
// last key can hash the fixed keys once and fold the rest.
func Hash(keys ...uint64) uint64 {
	h := uint64(hashSeed)
	for _, k := range keys {
		h = Fold(h, k)
	}
	return h
}

// Key pre-mixes one key for folding: Fold(h, k) == FoldKey(h, Key(k)). A key
// shared by many prefixes (a time step folded into every VM's hash) is
// mixed once.
func Key(k uint64) uint64 { return mix64(k + golden) }

// FoldKey folds a pre-mixed key (see Key) into the hash prefix h.
func FoldKey(h, key uint64) uint64 { return mix64(h ^ key) }

// Fold extends the hash prefix h by one more key.
func Fold(h, k uint64) uint64 { return FoldKey(h, Key(k)) }

// Unit maps a hash to [0, 1) with 53 bits of precision: Noise01(keys...) ==
// Unit(Hash(keys...)).
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Noise01 returns a deterministic pseudo-uniform value in [0, 1) keyed by
// the given integers. Calls are stateless: the same keys always give the
// same value, so lazy trace generators can evaluate "random" samples at any
// timestamp in any order.
func Noise01(keys ...uint64) float64 {
	return Unit(Hash(keys...))
}

// NoiseNorm returns a deterministic standard-normal value keyed by the given
// integers, via Box-Muller over two decorrelated hash draws.
func NoiseNorm(keys ...uint64) float64 {
	h := Hash(keys...)
	u1 := 1 - Unit(h)
	u2 := Unit(mix64(h))
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// SmoothNoise returns value-continuous noise in [0,1): piecewise cosine
// interpolation of Noise01 lattice values at integer positions of x. It
// drives slowly-varying trace components (e.g. cloud cover) where white
// noise would be unphysical.
//
// It is the composition of its two halves, which callers sampling many
// points can evaluate separately: Lattice depends on x only, LatticeEnds on
// the keys and the lattice cell only, and Blend joins them.
func SmoothNoise(x float64, keys ...uint64) float64 {
	cell, ease := Lattice(x)
	a, b := LatticeEnds(Hash(keys...), cell)
	return Blend(a, b, ease)
}

// Lattice returns the lattice cell containing x and the cosine ease weight
// of x within it. The ease curve keeps SmoothNoise's derivative continuous
// at lattice points.
func Lattice(x float64) (cell int64, ease float64) {
	x0 := math.Floor(x)
	return int64(x0), (1 - math.Cos(math.Pi*(x-x0))) / 2
}

// LatticeEnds returns the noise values at both ends of a lattice cell for
// the hash prefix h: Noise01(keys..., cell) and Noise01(keys..., cell+1)
// when h == Hash(keys...).
func LatticeEnds(h uint64, cell int64) (a, b float64) {
	return Unit(Fold(h, uint64(cell))), Unit(Fold(h, uint64(cell+1)))
}

// Blend interpolates between lattice end values by an ease weight.
func Blend(a, b, ease float64) float64 { return a*(1-ease) + b*ease }
