// Package textsim implements the code-similarity pipeline of §III-B: source
// tokenisation, fixed-length snippet embedding, package-level vectors,
// LSH partitions refined by K-Means under cosine similarity, and
// silhouette-score filtering.
//
// The paper embeds 512-token snippets with CodeBERT-base and concatenates the
// snippet vectors. Our substitute embeds each snippet with feature-hashed
// term frequencies: a classic locality-preserving code fingerprint that keeps
// the property the pipeline relies on — packages sharing a code base map to
// near-identical vectors (intra-group cosine ≈ 0.999) while unrelated code
// maps far apart. A 64-bit SimHash plus banded LSH provides the candidate
// pre-filter that makes corpus-scale clustering tractable.
//
// An artifact's source makes one byte pass: HashSource tokenizes and hashes
// it into a []TokenHash without materialising token strings, and that one
// stream feeds both EmbedHashed and SimHashHashed.
package textsim

import (
	"strings"
	"unicode"
)

// Byte classes of the tokenizer. Every byte classifies as the rune of the
// same value (so bytes ≥ 0x80 act as their Latin-1 runes: é is a letter,
// NBSP a space), through the same unicode predicates a per-rune switch
// would use.
const (
	clsPunct = iota // one single-byte token, always too short to count
	clsSpace        // separates tokens, emits none
	clsIdent        // starts an identifier: '_', '$' or a letter
	clsDigit        // starts a number; continues an identifier
	clsQuote        // opens a string literal: ", ' or `
)

var byteClass = func() (t [256]uint8) {
	for b := range t {
		c := rune(b)
		switch {
		case c == '"' || c == '\'' || c == '`':
			t[b] = clsQuote
		case c == '_' || c == '$' || unicode.IsLetter(c):
			t[b] = clsIdent
		case unicode.IsDigit(c):
			t[b] = clsDigit
		case unicode.IsSpace(c):
			t[b] = clsSpace
		}
	}
	return t
}()

// literalChunk splits long string-literal contents into tokens of at most
// this many bytes, so one giant blob does not dominate a snippet.
const literalChunk = 16

// HashSource tokenizes src and passes every token through hashToken in one
// byte pass, appending one TokenHash per token to dst[:0]. The tokens are
// identifiers/keywords, number literals, string-literal contents (URLs, IPs
// and base64 blobs are the very things CC operations change, split into
// literalChunk pieces) and single punctuation bytes; punctuation is always
// shorter than a hashed token may be, so it lands as a Skip entry without
// being sliced out. Skip entries keep the stream one entry per token, so the
// snippet windows of EmbedHashed count punctuation like any token.
// Language-agnostic across the .py/.js/.rb corpus. src may be a string or a
// byte slice: both run the one state machine, and neither is copied.
func HashSource[S ~string | ~[]byte](dst []TokenHash, src S) []TokenHash {
	dst = dst[:0]
	n := len(src)
	for i := 0; i < n; {
		switch byteClass[src[i]] {
		case clsSpace:
			i++
		case clsPunct:
			dst = append(dst, TokenHash{Skip: true})
			i++
		case clsIdent:
			j := i + 1
			for j < n && (byteClass[src[j]] == clsIdent || byteClass[src[j]] == clsDigit) {
				j++
			}
			dst = append(dst, hashToken(src[i:j]))
			i = j
		case clsDigit:
			j := i + 1
			for j < n && (byteClass[src[j]] == clsDigit || src[j] == '.') {
				j++
			}
			dst = append(dst, hashToken(src[i:j]))
			i = j
		case clsQuote:
			quote := src[i]
			j := i + 1
			for j < n && src[j] != quote {
				if src[j] == '\\' && j+1 < n {
					j++
				}
				j++
			}
			for lit := src[i+1 : min(j, n)]; len(lit) > 0; {
				k := min(len(lit), literalChunk)
				dst = append(dst, hashToken(lit[:k]))
				lit = lit[k:]
			}
			i = j + 1
		}
	}
	return dst
}

// NormalizeToken lower-cases and trims a token for hashing.
func NormalizeToken(t string) string { return strings.ToLower(t) }
