package textsim

import (
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"malgraph/internal/xrand"
)

// refHash is the stdlib FNV-1a the inline implementation replaces.
func refHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

func TestInlineFNVMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "requests", "HTTP", "päckage", "0x41_base64_chunk"} {
		if got, want := fnv1a64(s), refHash(s); got != want {
			t.Errorf("fnv1a64(%q) = %#x, stdlib %#x", s, got, want)
		}
	}
}

// TestHashTokensMatchesReference checks the per-token hashToken step against
// the NormalizeToken+Informative+FNV composition it replaces, including ASCII
// case folding, stopwords, pure numbers, short tokens and non-ASCII input.
func TestHashTokensMatchesReference(t *testing.T) {
	tokens := []string{
		"exfiltrate", "Exfiltrate", "EXFILTRATE", // case folding
		"def", "Return", "IMPORT", // stopwords in any case
		"ab", "x", "", // too short
		"12345", "3.14", // pure numbers / punctuation digits
		"base64chunk01", "10x", // mixed alphanumerics stay
		"péché", "ÜBER", // non-ASCII slow path
		"requests", "reqUests",
	}
	for _, tok := range tokens {
		got := hashToken(tok)
		norm := NormalizeToken(tok)
		wantSkip := !Informative(norm)
		if got.Skip != wantSkip {
			t.Errorf("token %q: Skip = %v, want %v", tok, got.Skip, wantSkip)
			continue
		}
		if !wantSkip && got.Hash != refHash(norm) {
			t.Errorf("token %q: hash %#x, want %#x", tok, got.Hash, refHash(norm))
		}
	}
}

// TestEmbedHashedMatchesEmbedTokens checks the production embedding of
// HashSource streams against the trimmed full-width oracle (checkHashSource),
// one EmbedBuffer reused across sources and configs.
func TestEmbedHashedMatchesEmbedTokens(t *testing.T) {
	var buf EmbedBuffer
	for _, n := range []int{2000, 300, 0, 1500} {
		checkHashSource(t, sampleSource(n), &buf)
	}
}

// TestSimHashHashedMatchesSimHash checks the packed-lane SimHash against the
// 64-step per-bit loop on streams that cross the 255-token lane flush.
func TestSimHashHashedMatchesSimHash(t *testing.T) {
	tokens := Tokenize(sampleSource(1500))
	if got, want := SimHashHashed(HashSource(nil, sampleSource(1500))), SimHash(tokens); got != want {
		t.Fatalf("SimHashHashed %#x, SimHash %#x", got, want)
	}
	rng := xrand.New(5)
	for _, n := range []int{0, 1, 254, 255, 256, 510, 511, 1000, 4000} {
		hashed := make([]TokenHash, n)
		for i := range hashed {
			// Uniform hashes keep every bit near the majority threshold,
			// ties included.
			hashed[i] = TokenHash{Hash: rng.Uint64(), Skip: i%7 == 3}
		}
		if got, want := SimHashHashed(hashed), simHashRef(hashed); got != want {
			t.Fatalf("%d tokens: SimHashHashed %#x, per-bit loop %#x", n, got, want)
		}
	}
	// One hash repeated drives every set bit's byte counter to the 255 the
	// lane flush must not pass.
	same := make([]TokenHash, 1000)
	for i := range same {
		same[i] = TokenHash{Hash: 0xF0F0_0000_FFFF_8001}
	}
	if got, want := SimHashHashed(same), simHashRef(same); got != want {
		t.Fatalf("repeated hash: SimHashHashed %#x, per-bit loop %#x", got, want)
	}
}

func TestDotEqualsCosineForNormalisedVectors(t *testing.T) {
	e := NewEmbedder(DefaultEmbedConfig())
	a := e.EmbedSource(sampleSource(900))
	b := e.EmbedSource(sampleSource(1100))
	dot, cos := Dot(a, b), Cosine(a, b)
	if math.Abs(dot-cos) > 1e-12 {
		t.Fatalf("Dot %v vs Cosine %v on normalised vectors", dot, cos)
	}
	// Unnormalised inputs still need Cosine.
	a2 := []float64{2, 0}
	b2 := []float64{2, 0}
	if got := Cosine(a2, b2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Cosine on unnormalised = %v, want 1", got)
	}
}

func TestHashSourceReusesBuffer(t *testing.T) {
	want := HashSource(nil, sampleSource(300))
	buf := HashSource(make([]TokenHash, 0, 4096), sampleSource(2000))
	got := HashSource(buf, sampleSource(300))
	if !slices.Equal(got, want) {
		t.Fatalf("reused buffer: %d entries, fresh %d, streams differ", len(got), len(want))
	}
	if &got[0] != &buf[0] {
		t.Fatal("HashSource reallocated a buffer large enough for the stream")
	}
}

// sampleSource generates deterministic pseudo-code with enough identifier
// variety to exercise snippets, stopwords and literals.
func sampleSource(n int) string {
	words := []string{
		"import", "requests", "payload", "exfil", "host", "token42",
		"def", "collect", "send_data", "base64", "urlopen", "bananasquad",
	}
	src := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		w := words[(i*7+i/5)%len(words)]
		src = append(src, w...)
		if i%9 == 0 {
			src = append(src, '(', '\'', 'h', 't', 't', 'p', '\'', ')')
		}
		src = append(src, ' ')
		if i%13 == 0 {
			src = append(src, '\n')
		}
	}
	return string(src)
}
