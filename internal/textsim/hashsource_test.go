package textsim

import (
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"malgraph/internal/ecosys"
	"malgraph/internal/world"
)

// oracleConfigs are the embedding shapes HashSource streams are checked
// under: the production default, and a tiny one whose 7-token snippets make
// short inputs cross snippet windows and fold overflow into the last slot.
var oracleConfigs = []EmbedConfig{
	DefaultEmbedConfig(),
	{SnippetTokens: 7, SnippetDim: 8, MaxSnippets: 3},
}

// checkHashSource checks the one-pass front end against the token-string
// oracle on src: the same hashed stream as HashTokens(TokenizeAppend(src)),
// the same SimHash as the 64-step per-bit loop, and, under every
// oracleConfigs shape, exact-length embeddings bit-equal to the trimmed
// full-width oracle with the same nil-ness. The byte-slice instantiation of
// HashSource must give the string one's stream. buf arrives dirty from
// earlier embeddings.
func checkHashSource(t testing.TB, src string, buf *EmbedBuffer) {
	t.Helper()
	want := HashTokens(TokenizeAppend(nil, src), nil)
	got := HashSource(nil, src)
	if len(got) != len(want) {
		t.Fatalf("%q: HashSource gives %d entries, tokenizer %d", clip(src), len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%q: entry %d is %+v, tokenizer %+v", clip(src), i, got[i], want[i])
		}
	}
	if gb := HashSource(nil, []byte(src)); !slices.Equal(gb, got) {
		t.Fatalf("%q: HashSource over bytes gives %d entries, over the string %d", clip(src), len(gb), len(got))
	}
	if g, w := SimHashHashed(got), simHashRef(want); g != w {
		t.Fatalf("%q: SimHashHashed %#x, per-bit loop %#x", clip(src), g, w)
	}
	for _, cfg := range oracleConfigs {
		e := NewEmbedder(cfg)
		gv := e.EmbedHashed(got, buf)
		wv := TrimZeroTail(e.embedRef(want))
		if (gv == nil) != (wv == nil) || len(gv) != len(wv) || cap(gv) != len(gv) {
			t.Fatalf("%q %+v: vector len %d cap %d (nil %v), oracle len %d (nil %v)",
				clip(src), cfg, len(gv), cap(gv), gv == nil, len(wv), wv == nil)
		}
		for i := range wv {
			if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
				t.Fatalf("%q %+v: dim %d is %v, oracle %v", clip(src), cfg, i, gv[i], wv[i])
			}
		}
	}
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "…"
	}
	return s
}

// dirtyBuffer returns an EmbedBuffer that has already embedded a long
// stream, so a check sees stale vector and key contents.
func dirtyBuffer() *EmbedBuffer {
	buf := new(EmbedBuffer)
	NewEmbedder(DefaultEmbedConfig()).EmbedHashed(HashSource(nil, sampleSource(3000)), buf)
	return buf
}

// FuzzHashSource checks HashSource, SimHashHashed and EmbedHashed against
// the token-string oracle on arbitrary bytes. The committed corpus covers
// unterminated quotes, a backslash at EOF, bytes 0x80–0xFF (0x85 and 0xA0
// are spaces, most others letters), 16- and 17-byte literals and a stream
// crossing a 512-token snippet boundary.
func FuzzHashSource(f *testing.F) {
	f.Add(sampleSource(40))
	buf := dirtyBuffer()
	f.Fuzz(func(t *testing.T, src string) {
		checkHashSource(t, src, buf)
	})
}

// worldArtifacts returns every released package artifact of the world at
// seed 1 and the given scale.
func worldArtifacts(tb testing.TB, scale float64) []*ecosys.Artifact {
	tb.Helper()
	w, err := world.Build(world.Config{Seed: 1, Scale: scale})
	if err != nil {
		tb.Fatal(err)
	}
	var out []*ecosys.Artifact
	for _, c := range w.Campaigns {
		for _, rec := range c.Packages {
			out = append(out, rec.Artifact)
		}
	}
	return out
}

func TestHashSourceMatchesTokenizerOnWorld(t *testing.T) {
	arts := worldArtifacts(t, 0.05)
	if len(arts) == 0 {
		t.Fatal("empty world")
	}
	buf := dirtyBuffer()
	for _, a := range arts {
		checkHashSource(t, a.MergedSource(), buf)
	}
}

// BenchmarkHashSource runs HashSource over every source file of the
// bench-scale world (MALGRAPH_BENCH_SCALE, default 0.05), one sub-benchmark
// per language, reporting MB/s.
func BenchmarkHashSource(b *testing.B) {
	scale := 0.05
	if v, err := strconv.ParseFloat(os.Getenv("MALGRAPH_BENCH_SCALE"), 64); err == nil && v > 0 {
		scale = v
	}
	byExt := make(map[string][]string)
	for _, a := range worldArtifacts(b, scale) {
		for _, f := range a.SourceFiles() {
			ext := f.Path[strings.LastIndexByte(f.Path, '.'):]
			byExt[ext] = append(byExt[ext], f.Content)
		}
	}
	for _, ext := range []string{".py", ".js", ".rb"} {
		files := byExt[ext]
		if len(files) == 0 {
			continue
		}
		var size int64
		for _, src := range files {
			size += int64(len(src))
		}
		b.Run(ext[1:], func(b *testing.B) {
			var hashed []TokenHash
			b.SetBytes(size)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range files {
					hashed = HashSource(hashed, src)
				}
			}
		})
	}
}
