// Package rng provides deterministic, splittable pseudo-random number
// streams for the simulation. Every stochastic decision in the simulator
// draws from a named Stream derived from a root seed, so that experiments
// are reproducible bit-for-bit and sub-systems can be re-seeded
// independently without perturbing each other.
//
// The generator is xoshiro256**, seeded through splitmix64. Named streams
// are derived by hashing the parent seed with the stream label (FNV-1a),
// which gives statistically independent streams for distinct labels.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances the seed and returns the next output. It is used both
// to expand a single 64-bit seed into xoshiro state and to mix stream labels.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv1a hashes a string to 64 bits (FNV-1a).
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Stream is a deterministic random stream. The zero value is not usable;
// construct with New or derive with Derive/DeriveN.
type Stream struct {
	s0, s1, s2, s3 uint64
	seed           uint64 // retained so children can be derived

	// cached second normal variate from the Box-Muller transform
	hasGauss bool
	gauss    float64
}

// New returns a stream rooted at seed.
func New(seed uint64) *Stream {
	r := &Stream{seed: seed}
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Derive returns an independent child stream identified by label.
// Derive is deterministic: the same parent seed and label always produce
// the same child, regardless of how much the parent has been consumed.
func (r *Stream) Derive(label string) *Stream {
	return New(r.seed ^ bits.RotateLeft64(fnv1a(label), 17))
}

// DeriveN returns an independent child stream identified by label and an
// index, for families of streams such as per-rank or per-node noise.
func (r *Stream) DeriveN(label string, n int) *Stream {
	return New(r.seed ^ bits.RotateLeft64(fnv1a(label), 17) ^ bits.RotateLeft64(uint64(n)+0x51ed2701, 31))
}

// Seed returns the seed this stream was constructed from.
func (r *Stream) Seed() uint64 { return r.seed }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *Stream) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := (-uint64(n)) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate (Box-Muller, cached pair).
func (r *Stream) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// LogNormal returns a log-normal variate where the underlying normal has
// parameters mu and sigma.
func (r *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Stream) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exponential returns an exponential variate with the given mean.
func (r *Stream) Exponential(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool {
	return r.Float64() < p
}
