// Package xrand provides a deterministic, splittable pseudo-random number
// generator used by every simulation component in this repository.
//
// The generator is based on SplitMix64 (Steele, Lea & Flood, OOPSLA 2014),
// which has a 64-bit state, passes BigCrush, and — crucially for us — supports
// cheap derivation of statistically independent substreams. Each subsystem
// derives a named stream from the world seed, so adding randomness to one
// component never perturbs another: the entire synthetic world is a pure
// function of a single seed.
package xrand

import (
	"hash/fnv"
	"math"
)

// RNG is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; derive one stream per goroutine instead (see Derive).
type RNG struct {
	state uint64
}

// New returns a generator seeded with the given value.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Derive returns a new, statistically independent generator whose stream is a
// pure function of the parent seed and the given name. Deriving the same name
// twice yields identical streams; different names yield unrelated streams.
func (r *RNG) Derive(name string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	// Mix the parent's *seed-equivalent* state with the name hash. We fold
	// through one SplitMix64 round so that "a"+seed and seed+"a" differ.
	return New(mix64(r.state ^ h.Sum64()))
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return mix64(r.state)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers must validate their bounds.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u <= 1e-300 {
			continue
		}
		return -math.Log(u)
	}
}

// Pareto returns a Pareto(xm, alpha) variate. Heavy-tailed draws model the
// long-tail group sizes and active periods observed in the paper.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u <= 1e-300 {
			continue
		}
		return xm / math.Pow(u, 1/alpha)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen element of the non-empty slice.
func Pick[T any](r *RNG, items []T) T {
	return items[r.Intn(len(items))]
}

// Sample returns k distinct indices from [0, n) in random order. If k >= n it
// returns a permutation of all n indices.
func (r *RNG) Sample(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	// Partial Fisher–Yates over an index map keeps this O(k) in memory for
	// small k relative to n only if we used a map; n here is always modest,
	// so the simple array is clearer and fast enough.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// WeightedIndex returns an index drawn proportionally to weights. Zero or
// negative weights are treated as zero; if all weights are zero it returns 0.
func (r *RNG) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	target := r.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}
