package textsim

import (
	"math"
	"slices"
	"unicode"
)

// The token-string front end HashSource replaces, kept as the test oracle:
// tokenize an artifact into a []string, hash every token, and embed or
// fingerprint the hashed stream with the full-width embedding and the
// 64-step per-bit SimHash. HashSource, EmbedHashed and SimHashHashed must
// reproduce it bit for bit (FuzzHashSource,
// TestHashSourceMatchesTokenizerOnWorld).

// Tokenize splits source code into tokens: identifiers/keywords, number
// literals, string-literal contents, and single punctuation runes.
func Tokenize(src string) []string {
	return TokenizeAppend(nil, src)
}

// TokenizeAppend tokenizes src, appending to dst.
func TokenizeAppend(dst []string, src string) []string {
	tokens := dst
	if cap(tokens) == 0 {
		tokens = make([]string, 0, len(src)/6)
	}
	i := 0
	n := len(src)
	for i < n {
		c := rune(src[i])
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(c):
			j := i + 1
			for j < n && isIdentPart(rune(src[j])) {
				j++
			}
			tokens = append(tokens, src[i:j])
			i = j
		case unicode.IsDigit(c):
			j := i + 1
			for j < n && (unicode.IsDigit(rune(src[j])) || src[j] == '.') {
				j++
			}
			tokens = append(tokens, src[i:j])
			i = j
		case c == '"' || c == '\'' || c == '`':
			quote := src[i]
			j := i + 1
			for j < n && src[j] != quote {
				if src[j] == '\\' && j+1 < n {
					j++
				}
				j++
			}
			inner := src[i+1 : min(j, n)]
			tokens = append(tokens, splitLongLiteral(inner)...)
			i = j + 1
		default:
			if !unicode.IsSpace(c) {
				tokens = append(tokens, string(c))
			}
			i++
		}
	}
	return tokens
}

func splitLongLiteral(s string) []string {
	const chunk = 16
	if len(s) <= chunk {
		if s == "" {
			return nil
		}
		return []string{s}
	}
	out := make([]string, 0, len(s)/chunk+1)
	for len(s) > chunk {
		out = append(out, s[:chunk])
		s = s[chunk:]
	}
	if s != "" {
		out = append(out, s)
	}
	return out
}

func isIdentStart(c rune) bool {
	return c == '_' || c == '$' || unicode.IsLetter(c)
}

func isIdentPart(c rune) bool {
	return isIdentStart(c) || unicode.IsDigit(c)
}

// Snippets splits tokens into consecutive windows of size tokensPer
// (paper: 512 tokens per CodeBERT snippet). The final partial window is kept.
func Snippets(tokens []string, tokensPer int) [][]string {
	if tokensPer <= 0 || len(tokens) == 0 {
		return nil
	}
	out := make([][]string, 0, len(tokens)/tokensPer+1)
	for start := 0; start < len(tokens); start += tokensPer {
		end := min(start+tokensPer, len(tokens))
		out = append(out, tokens[start:end])
	}
	return out
}

// HashTokens normalizes, filters and hashes a token stream, one entry per
// input token. dst is reused when its capacity suffices.
func HashTokens(tokens []string, dst []TokenHash) []TokenHash {
	if cap(dst) < len(tokens) {
		dst = make([]TokenHash, len(tokens))
	}
	dst = dst[:len(tokens)]
	for i, t := range tokens {
		dst[i] = hashToken(t)
	}
	return dst
}

// EmbedSource embeds merged package source into the full-width
// L2-normalised vector of length Config().Dim().
func (e *Embedder) EmbedSource(src string) []float64 {
	return e.EmbedTokens(Tokenize(src))
}

// EmbedTokens embeds a token stream at full width Config().Dim().
func (e *Embedder) EmbedTokens(tokens []string) []float64 {
	return e.embedRef(HashTokens(tokens, nil))
}

// embedRef embeds a hashed stream at full width, zero padding included, into
// a fresh vector and sort buffer per call.
func (e *Embedder) embedRef(hashed []TokenHash) []float64 {
	vec := make([]float64, e.cfg.Dim())
	scratch := make([]uint64, 0, min(len(hashed), e.cfg.SnippetTokens))
	for lo := 0; lo < len(hashed); lo += e.cfg.SnippetTokens {
		si := lo / e.cfg.SnippetTokens
		if si >= e.cfg.MaxSnippets {
			si = e.cfg.MaxSnippets - 1
		}
		base := si * e.cfg.SnippetDim
		hi := min(lo+e.cfg.SnippetTokens, len(hashed))
		scratch = scratch[:0]
		for _, th := range hashed[lo:hi] {
			if !th.Skip {
				scratch = append(scratch, th.Hash)
			}
		}
		slices.Sort(scratch)
		for s := 0; s < len(scratch); {
			hv := scratch[s]
			n := s + 1
			for n < len(scratch) && scratch[n] == hv {
				n++
			}
			idx := int(hv % uint64(e.cfg.SnippetDim))
			sign := 1.0
			if hv&(1<<63) != 0 {
				sign = -1.0
			}
			vec[base+idx] += sign * math.Sqrt(float64(n-s))
			s = n
		}
	}
	normalize(vec)
	return vec
}

// SimHash fingerprints a token stream.
func SimHash(tokens []string) uint64 {
	return simHashRef(HashTokens(tokens, nil))
}

// simHashRef fingerprints a hashed stream with one ±1 update per bit per
// informative token.
func simHashRef(hashed []TokenHash) uint64 {
	var counts [64]int
	for _, th := range hashed {
		if th.Skip {
			continue
		}
		for b := 0; b < 64; b++ {
			counts[b] += int((th.Hash>>uint(b))&1)*2 - 1
		}
	}
	var out uint64
	for b := 0; b < 64; b++ {
		if counts[b] > 0 {
			out |= 1 << uint(b)
		}
	}
	return out
}
