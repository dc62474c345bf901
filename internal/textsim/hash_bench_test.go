package textsim

import "testing"

// Micro-benchmarks for the §III-B kernels. Run with -benchmem: the
// production path is one HashSource pass into a recycled stream feeding
// EmbedHashed (recycled EmbedBuffer, one exact-length vector allocated) and
// SimHashHashed (no allocations), and Dot removes two thirds of Cosine's
// memory traffic.

var benchSource = sampleSource(4000)

func BenchmarkEmbedTokens(b *testing.B) {
	e := NewEmbedder(DefaultEmbedConfig())
	hashed := HashSource(nil, benchSource)
	var buf EmbedBuffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.EmbedHashed(hashed, &buf)
	}
}

func BenchmarkSimHash(b *testing.B) {
	hashed := HashSource(nil, benchSource)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SimHashHashed(hashed)
	}
}

// BenchmarkSharedHashedStream is the production path per artifact: one
// HashSource pass (into a recycled buffer) feeding both the embedding and
// the fingerprint.
func BenchmarkSharedHashedStream(b *testing.B) {
	e := NewEmbedder(DefaultEmbedConfig())
	var hashed []TokenHash
	var buf EmbedBuffer
	b.SetBytes(int64(len(benchSource)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hashed = HashSource(hashed, benchSource)
		_ = e.EmbedHashed(hashed, &buf)
		_ = SimHashHashed(hashed)
	}
}

func BenchmarkDot(b *testing.B) {
	e := NewEmbedder(DefaultEmbedConfig())
	x := e.EmbedSource(sampleSource(900))
	y := e.EmbedSource(sampleSource(1100))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Dot(x, y)
	}
}

func BenchmarkCosine(b *testing.B) {
	e := NewEmbedder(DefaultEmbedConfig())
	x := e.EmbedSource(sampleSource(900))
	y := e.EmbedSource(sampleSource(1100))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Cosine(x, y)
	}
}
