// Package rng provides a small, fast, deterministic random number generator
// with the distributions the simulator needs (exponential, normal,
// lognormal, uniform). These drive the paper's workload model: RUBBoS think
// times around 7 seconds and per-interaction service demands (§II-B), with
// independent per-component streams so trials replay identically — the
// property every figure reproduction relies on.
//
// The generator is xoshiro256**, seeded through splitmix64 so that any
// 64-bit seed (including 0) produces a well-mixed state. Independent streams
// for different model components are derived from a base seed plus a stream
// label, keeping experiment replay deterministic regardless of the order in
// which components draw numbers.
package rng

import "math"

// Rand is a deterministic pseudo-random source. Not safe for concurrent use;
// the simulator is effectively single-threaded so no locking is needed.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed.
func New(seed uint64) *Rand {
	r := seeded(seed)
	return &r
}

// NewStream derives an independent generator from a base seed and a stream
// label. Streams with different labels are statistically independent.
func NewStream(seed uint64, label string) *Rand {
	r := Stream(seed, label)
	return &r
}

// Stream is NewStream returning the generator by value, for callers that
// keep it inside a larger allocation instead of behind its own pointer.
func Stream(seed uint64, label string) Rand {
	return seeded(seed ^ fnv1a(label))
}

func seeded(seed uint64) Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// SubSeed derives an independent base seed for a named component — e.g. one
// tenant of a multi-tenant fleet — from a parent seed. Every stream built
// under the derived seed (NewStream(SubSeed(seed, "tenantA"), "user-0"))
// depends only on (seed, key, label): adding, removing, or reordering other
// components never perturbs its draws, which keeps per-tenant trial replay
// deterministic under consolidation the same way per-component streams keep
// single-app figure reproductions deterministic.
//
// The key hash is mixed through a splitmix64 round rather than XORed in
// directly: NewStream XORs its label hash into the seed, and without the
// extra mixing a (key, label) pair could cancel against a different
// (key', label') pair bit-for-bit.
func SubSeed(seed uint64, key string) uint64 {
	z := seed + 0x9e3779b97f4a7c15 + fnv1a(key)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv1a is the 64-bit FNV-1a string hash used for label/key derivation.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037) // offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias negligible for model sizes
}

// Uniform returns a uniform value in [a, b).
func (r *Rand) Uniform(a, b float64) float64 {
	return a + (b-a)*r.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
// A zero or negative mean returns 0.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0); Float64 can return exactly 0.
	if u <= 0 {
		u = 1.0 / (1 << 53)
	}
	return -mean * math.Log(u)
}

// Normal returns a normally distributed value with mean mu and standard
// deviation sigma, using the polar Box-Muller transform.
func (r *Rand) Normal(mu, sigma float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mu + sigma*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// LogNormal returns exp(Normal(mu, sigma)): a heavy-ish tailed positive
// value. mu and sigma are the parameters of the underlying normal.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// CV is a coefficient of variation (stddev/mean) for LogNormalMean, with
// the parameters it fixes of the lognormal — sigma² = log(1+cv²) and sigma
// — computed once instead of at every draw. The zero CV is no variation.
type CV struct {
	cv, sigma2, sigma float64
}

// NewCV returns the coefficient of variation cv.
func NewCV(cv float64) CV {
	if cv <= 0 {
		return CV{}
	}
	sigma2 := math.Log(1 + cv*cv)
	return CV{cv: cv, sigma2: sigma2, sigma: math.Sqrt(sigma2)}
}

// LogNormalMean returns a lognormal value with the given (arithmetic) mean
// and coefficient of variation cv. No variation returns mean.
func (r *Rand) LogNormalMean(mean float64, cv CV) float64 {
	if mean <= 0 {
		return 0
	}
	if cv.cv <= 0 {
		return mean
	}
	return r.LogNormal(math.Log(mean)-cv.sigma2/2, cv.sigma)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }
