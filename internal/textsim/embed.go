package textsim

import (
	"math"
	"slices"
)

// EmbedConfig parameterises package embedding. The defaults mirror §III-B:
// 512-token snippets; MaxSnippets bounds the concatenated vector so every
// package embeds to the same length (shorter packages are zero-padded, a
// fixed-shape analogue of the paper's concatenation).
type EmbedConfig struct {
	SnippetTokens int // tokens per snippet (paper: 512)
	SnippetDim    int // hashed dimensions per snippet vector
	MaxSnippets   int // snippets concatenated per package
}

// DefaultEmbedConfig returns the configuration used across the repository.
func DefaultEmbedConfig() EmbedConfig {
	return EmbedConfig{SnippetTokens: 512, SnippetDim: 64, MaxSnippets: 4}
}

// Dim returns the package-vector dimensionality.
func (c EmbedConfig) Dim() int { return c.SnippetDim * c.MaxSnippets }

// Embedder converts source code into fixed-length vectors.
type Embedder struct {
	cfg EmbedConfig
}

// NewEmbedder returns an embedder; zero-valued config fields fall back to
// defaults.
func NewEmbedder(cfg EmbedConfig) *Embedder {
	def := DefaultEmbedConfig()
	if cfg.SnippetTokens <= 0 {
		cfg.SnippetTokens = def.SnippetTokens
	}
	if cfg.SnippetDim <= 0 {
		cfg.SnippetDim = def.SnippetDim
	}
	if cfg.MaxSnippets <= 0 {
		cfg.MaxSnippets = def.MaxSnippets
	}
	return &Embedder{cfg: cfg}
}

// Config returns the effective configuration.
func (e *Embedder) Config() EmbedConfig { return e.cfg }

// TrimZeroTail drops a vector's trailing zero dimensions. Packages shorter
// than SnippetTokens×MaxSnippets leave their tail snippet slots at exactly
// zero (the fixed-shape padding), so dot products against the trimmed vector
// are mathematically unchanged while the O(n·k·d) clustering kernels scan
// only the occupied prefix — on real corpora most artifacts fill one snippet
// slot, a ~4× kernel saving. Dot, centroid accumulation and the silhouette
// scans all accept mixed-length vectors.
func TrimZeroTail(v []float64) []float64 {
	n := len(v)
	for n > 0 && v[n-1] == 0 {
		n--
	}
	return v[:n]
}

// EmbedBuffer is one worker's reusable EmbedHashed scratch: the full-width
// vector it accumulates into and the per-snippet hash keys it sorts. The zero
// value is ready to use; a buffer must not be shared between goroutines.
type EmbedBuffer struct {
	vec  []float64
	keys []uint64
}

// EmbedHashed embeds a HashSource stream. Only informative tokens contribute
// (punctuation, one/two-character fragments and language keywords carry no
// code-base identity and would otherwise dominate the vectors), and term
// frequencies are sublinear (sqrt) so a token repeated hundreds of times
// cannot swamp a snippet — both standard code-retrieval weightings that stand
// in for the contextual weighting CodeBERT learns.
//
// The vector is accumulated at full width Config().Dim() in buf and
// returned as an exact-length copy of its TrimZeroTail prefix, non-nil even
// when no token is informative, so the caller's vector keeps no reference
// to buf.
//
// Invariant: the returned vector is L2-normalised (or all-zero when no token
// is informative), so downstream similarity code may use Dot as the cosine
// without renormalising.
func (e *Embedder) EmbedHashed(hashed []TokenHash, buf *EmbedBuffer) []float64 {
	dim := e.cfg.Dim()
	if cap(buf.vec) < dim {
		buf.vec = make([]float64, dim)
	}
	vec := buf.vec[:dim]
	clear(vec)
	for lo := 0; lo < len(hashed); lo += e.cfg.SnippetTokens {
		si := lo / e.cfg.SnippetTokens
		if si >= e.cfg.MaxSnippets {
			// Overflow snippets fold into the last slot so very large
			// packages still contribute all their content.
			si = e.cfg.MaxSnippets - 1
		}
		base := si * e.cfg.SnippetDim
		hi := min(lo+e.cfg.SnippetTokens, len(hashed))
		keys := buf.keys[:0]
		for _, th := range hashed[lo:hi] {
			if !th.Skip {
				keys = append(keys, th.Hash)
			}
		}
		buf.keys = keys
		// Sorting fixes the floating-point accumulation order (map-based
		// counting would add colliding dimensions in random order, making
		// embeddings differ in the last bit between runs) and counts each
		// distinct token as one run.
		slices.Sort(keys)
		for s := 0; s < len(keys); {
			hv := keys[s]
			n := s + 1
			for n < len(keys) && keys[n] == hv {
				n++
			}
			idx := int(hv % uint64(e.cfg.SnippetDim))
			sign := 1.0
			if hv&(1<<63) != 0 {
				sign = -1.0 // signed hashing reduces collision bias
			}
			vec[base+idx] += sign * math.Sqrt(float64(n-s))
			s = n
		}
	}
	normalize(vec)
	trimmed := TrimZeroTail(vec)
	return append(make([]float64, 0, len(trimmed)), trimmed...)
}

// codeStopwords are language keywords and ubiquitous identifiers shared by
// virtually every package; they carry no code-base identity.
var codeStopwords = map[string]bool{
	"def": true, "return": true, "import": true, "from": true, "const": true,
	"let": true, "var": true, "function": true, "require": true, "class": true,
	"if": true, "else": true, "elif": true, "for": true, "while": true,
	"in": true, "of": true, "new": true, "this": true, "self": true,
	"end": true, "do": true, "not": true, "and": true, "or": true,
	"true": true, "false": true, "none": true, "null": true, "nil": true,
	"print": true, "pass": true, "try": true, "except": true, "catch": true,
	"raise": true, "throw": true, "async": true, "await": true, "module": true,
	"exports": true, "lambda": true, "yield": true, "with": true, "as": true,
	"loop": true, "puts": true, "https": true, "http": true, "com": true,
	"org": true, "www": true,
}

// Informative reports whether a normalised token should contribute to
// embeddings and fingerprints.
func Informative(norm string) bool {
	if len(norm) < 3 {
		return false
	}
	if codeStopwords[norm] {
		return false
	}
	digits := 0
	for _, r := range norm {
		if r >= '0' && r <= '9' {
			digits++
		}
	}
	// Pure numbers (version fragments, line counts) are noise; mixed
	// alphanumerics (identifiers, IPs, base64 chunks) are signal.
	return digits < len(norm)
}

func normalize(v []float64) {
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	if ss == 0 {
		return
	}
	inv := 1 / math.Sqrt(ss)
	for i := range v {
		v[i] *= inv
	}
}

// SimHashHashed computes a 64-bit locality-sensitive fingerprint of a
// HashSource stream: bit b is set when more informative tokens have hash bit
// b set than clear. Near-identical code bases produce fingerprints within a
// few bits of each other, which the banded LSH in cluster.go exploits.
//
// The bit counts are packed: lanes[j] holds eight byte-wide counters, one
// per hash byte, of bit j of that byte, so one token costs eight shifted
// masked adds instead of 64 per-bit updates. A byte counter overflows past
// 255, so the lanes are flushed into the wide counts every 255 tokens.
func SimHashHashed(hashed []TokenHash) uint64 {
	const lowBits = 0x0101010101010101 // bit 0 of every byte
	var ones [64]int
	var lanes [8]uint64
	total, pending := 0, 0
	for _, th := range hashed {
		if th.Skip {
			continue
		}
		hv := th.Hash
		lanes[0] += hv & lowBits
		lanes[1] += hv >> 1 & lowBits
		lanes[2] += hv >> 2 & lowBits
		lanes[3] += hv >> 3 & lowBits
		lanes[4] += hv >> 4 & lowBits
		lanes[5] += hv >> 5 & lowBits
		lanes[6] += hv >> 6 & lowBits
		lanes[7] += hv >> 7 & lowBits
		total++
		if pending++; pending == 255 {
			flushLanes(&ones, &lanes)
			pending = 0
		}
	}
	flushLanes(&ones, &lanes)
	var out uint64
	for b, n := range ones {
		// ones − (total − ones) > 0: the majority vote of the ±1 updates.
		if 2*n > total {
			out |= 1 << b
		}
	}
	return out
}

// flushLanes adds the byte counters of lanes into ones and zeroes them:
// byte k of lanes[j] counts hash bit 8k+j.
func flushLanes(ones *[64]int, lanes *[8]uint64) {
	for j, lane := range lanes {
		for k := 0; k < 8; k++ {
			ones[8*k+j] += int(lane >> (8 * k) & 0xFF)
		}
	}
	*lanes = [8]uint64{}
}
