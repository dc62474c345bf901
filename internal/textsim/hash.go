package textsim

import "unicode/utf8"

// This file holds the allocation-free kernel of the §III-B pipeline: an
// inline FNV-1a (hash/fnv heap-allocates a hasher per call), the per-token
// normalize→filter→hash step HashSource applies to every token, and the Dot
// fast path for L2-normalised vectors.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a64 hashes s with FNV-1a without allocating.
func fnv1a64(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// TokenHash is one token after HashSource's normalize→filter→hash pass. Skip
// marks tokens Informative rejects; their Hash is meaningless.
type TokenHash struct {
	Hash uint64
	Skip bool
}

// stopwordByHash indexes codeStopwords by FNV-1a hash; the stored word
// confirms the match so an (astronomically unlikely) hash collision cannot
// silently drop a real identifier.
var stopwordByHash = func() map[uint64]string {
	m := make(map[uint64]string, len(codeStopwords))
	for w := range codeStopwords {
		m[fnv1a64(w)] = w
	}
	return m
}()

// hashToken lower-cases, filters and hashes one token without allocating.
// The ASCII fast path folds case inline; non-ASCII tokens take the exact
// NormalizeToken+Informative route.
func hashToken[S ~string | ~[]byte](t S) TokenHash {
	if len(t) < 3 {
		return TokenHash{Skip: true}
	}
	h := uint64(fnvOffset64)
	digits := 0
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= utf8.RuneSelf {
			return hashTokenSlow(string(t))
		}
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c >= '0' && c <= '9' {
			digits++
		}
		h ^= uint64(c)
		h *= fnvPrime64
	}
	if digits == len(t) {
		return TokenHash{Skip: true} // pure numbers are noise
	}
	if w, ok := stopwordByHash[h]; ok && equalFoldASCII(t, w) {
		return TokenHash{Skip: true}
	}
	return TokenHash{Hash: h}
}

func hashTokenSlow(t string) TokenHash {
	norm := NormalizeToken(t)
	if !Informative(norm) {
		return TokenHash{Skip: true}
	}
	return TokenHash{Hash: fnv1a64(norm)}
}

// equalFoldASCII reports whether lower-casing ASCII t yields w (w is already
// lower-case).
func equalFoldASCII[S ~string | ~[]byte](t S, w string) bool {
	if len(t) != len(w) {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != w[i] {
			return false
		}
	}
	return true
}

// Dot returns the inner product of two equal-length vectors. For the
// L2-normalised vectors Embedder.EmbedHashed produces (and the normalised
// centroids derived from them) this equals their cosine at a third of the
// memory traffic of dividing through both norms, which is why every
// clustering-stage comparison uses it. The four-lane unrolling fixes the
// summation order, so results are bit-stable across runs and worker counts.
func Dot(a, b []float64) float64 {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}
