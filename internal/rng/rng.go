// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component in the simulator.
//
// Determinism is a core requirement of the reproduction: the paper's
// pipeline (PCA → clustering → subsetting → validation) must produce the
// same tables and figures on every run, so all randomness flows from
// explicitly seeded generators. The implementation is SplitMix64 for
// seeding and xoshiro256** for the stream, both public-domain algorithms
// with excellent statistical quality and no global state.
package rng

import (
	"math"
	"runtime"
	"slices"
)

// splitmix64 advances the given state and returns the next output.
// It is used to expand a single 64-bit seed into the 256-bit xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New or NewFrom.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from a single 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	ensureNonZeroState(&r.s)
	return r
}

// ensureNonZeroState guards against the forbidden all-zero xoshiro state,
// from which the generator would emit zeros forever. Any nonzero state is
// left untouched.
func ensureNonZeroState(s *[4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
}

// NewFrom derives a generator from a sequence of seed components, such as
// (suite, workload, machine, study). Mixing happens through SplitMix64 so
// that nearby component values produce unrelated streams.
func NewFrom(parts ...uint64) *Rand {
	sm := uint64(0x243f6a8885a308d3) // pi fractional bits: arbitrary non-zero start
	for _, p := range parts {
		sm ^= p + 0x9e3779b97f4a7c15 + (sm << 6) + (sm >> 2)
		splitmix64(&sm)
	}
	return New(sm)
}

// HashString folds a string into a 64-bit value suitable for NewFrom.
// It is FNV-1a, inlined here to avoid importing hash/fnv in hot paths.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	// 53 high-quality bits, standard conversion.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p: Float64() < p, except that p <= 0
// and p >= 1 draw nothing. It is r.Hit(P(p)); code that draws against the
// same p many times should compute P(p) once and call Hit.
func (r *Rand) Bool(p float64) bool { return r.Hit(P(p)) }

// Prob is a Bernoulli probability precomputed for Hit. Above zero it is
// one more than a threshold on the 53 bits Float64 uses; the zero value is
// probability 0.
type Prob uint64

// probAlways is p >= 1: true without a draw.
const probAlways Prob = 1<<53 + 1

// P returns the Prob that makes Hit decide exactly as Bool(p). Float64 is
// k/2^53 for the draw's top 53 bits k, and scaling by 2^53 is exact, so
// k/2^53 < p holds exactly when k < ceil(p*2^53). A NaN p keeps Bool's
// draw and, like Float64() < NaN, is never hit: its threshold is 0.
func P(p float64) Prob {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return probAlways
	case math.IsNaN(p):
		return 1
	}
	return Prob(math.Ceil(p*(1<<53))) + 1
}

// Hit returns true with the probability t was computed from (see P). It
// draws from r exactly when Bool would and returns what Bool returns.
func (r *Rand) Hit(t Prob) bool {
	if t-1 >= 1<<53 { // 0 or probAlways: no draw
		return t == probAlways
	}
	return r.Uint64()>>11 < uint64(t-1)
}

// NormFloat64 returns a standard normal variate via the Box–Muller
// transform (polar form rejection avoided for simplicity; Box–Muller is
// fully deterministic per generator state, which is what we need).
func (r *Rand) NormFloat64() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with rate <= 0")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// algorithm for small lambda and a normal approximation above 64, which is
// ample for the event rates the simulator generates.
func (r *Rand) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := int(lambda + math.Sqrt(lambda)*r.NormFloat64() + 0.5)
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Geometric returns a geometric variate: the number of failures before the
// first success with success probability p in (0, 1].
func (r *Rand) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric called with p <= 0")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return int(math.Log(u) / math.Log(1-p))
}

// Zipf is a Zipfian distribution over [0, n) with exponent s, sampled by
// binary search over its cumulative table; used to pick hot code pages and
// hot heap regions where skewed popularity matters. The zero value is
// empty: call Init before Next. Next only reads the table, so one Zipf can
// serve any number of generators.
type Zipf struct {
	cdf  []float64
	logs []float64 // math.Log(i+1) for each rank i, kept while n stays
}

// portablePow reports whether math.Pow is the portable Go routine whose
// steps Init repeats; s390x replaces it with an assembly one.
const portablePow = runtime.GOARCH != "s390x"

// Init makes z the distribution over [0, n) with exponent s >= 0, reusing
// z's table storage; s == 0 degenerates to uniform. Each term is
// 1/math.Pow(i+1, s) to the bit.
func (z *Zipf) Init(n int, s float64) {
	if n <= 0 {
		panic("rng: Zipf.Init called with n <= 0")
	}
	cdf := slices.Grow(z.cdf[:0], n)[:n]
	z.cdf = cdf
	//charnet:ignore floateq math.Pow returns Sqrt for exactly this exponent, so only it leaves the general path
	if !portablePow || !(s > 0 && s < 1<<63) || s == 0.5 {
		// Zero, negative, NaN, infinite and huge exponents, and the
		// square root: math.Pow does not take its general path.
		sum := 0.0
		for i := range cdf {
			sum += 1 / math.Pow(float64(i+1), s)
			cdf[i] = sum
		}
		normalize(cdf, sum)
		return
	}
	if len(z.logs) != n {
		z.logs = slices.Grow(z.logs[:0], n)[:n]
		for i := range z.logs {
			z.logs[i] = math.Log(float64(i + 1))
		}
	}
	// math.Pow's general path for x = i+1 > 1 and y = s > 0, with its
	// Log(x) read from the table: split s, raise x to the fraction
	// through Exp and to the integer part by squaring the mantissa, then
	// scale by the accumulated power of two. Pow(1, s) is 1.
	si, sf := math.Modf(s)
	if sf > 0.5 {
		sf--
		si++
	}
	yi := int64(si)
	cdf[0] = 1
	sum := 1.0
	for i := 1; i < n; i++ {
		a1, ae := 1.0, 0
		if sf != 0 {
			a1 = math.Exp(sf * z.logs[i])
		}
		x1, xe := math.Frexp(float64(i + 1))
		for k := yi; k != 0; k >>= 1 {
			if xe < -1<<12 || 1<<12 < xe {
				ae += xe
				break
			}
			if k&1 == 1 {
				a1 *= x1
				ae += xe
			}
			x1 *= x1
			xe <<= 1
			if x1 < .5 {
				x1 += x1
				xe--
			}
		}
		sum += 1 / math.Ldexp(a1, ae)
		cdf[i] = sum
	}
	normalize(cdf, sum)
}

// normalize divides each cumulative weight by the total.
func normalize(cdf []float64, sum float64) {
	for i := range cdf {
		cdf[i] /= sum
	}
}

// Next draws the next Zipf-distributed value from r.
func (z *Zipf) Next(r *Rand) int {
	u := r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
