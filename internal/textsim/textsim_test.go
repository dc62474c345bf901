package textsim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasics(t *testing.T) {
	src := `const url = "https://evil.example/x";` + "\n" + `exec(payload_42, 3.14)`
	tokens := Tokenize(src)
	joined := strings.Join(tokens, " ")
	for _, want := range []string{"const", "url", "https", "exec", "payload_42", "3.14"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("token %q missing from %v", want, tokens)
		}
	}
}

func TestTokenizeStringContents(t *testing.T) {
	tokens := Tokenize(`x = "10.0.0.1"`)
	joined := strings.Join(tokens, " ")
	if !strings.Contains(joined, "10.0.0.1") {
		t.Fatalf("string literal contents must survive tokenisation: %v", tokens)
	}
}

func TestTokenizeLongLiteralSplit(t *testing.T) {
	blob := strings.Repeat("A", 100)
	tokens := Tokenize(`b = "` + blob + `"`)
	for _, tok := range tokens {
		if len(tok) > 16 {
			t.Fatalf("long literal not split: %q", tok)
		}
	}
}

func TestTokenizeEscapedQuote(t *testing.T) {
	tokens := Tokenize(`s = "a\"b"` + "\nnext_ident")
	joined := strings.Join(tokens, " ")
	if !strings.Contains(joined, "next_ident") {
		t.Fatalf("escaped quote broke tokenisation: %v", tokens)
	}
}

func TestSnippets(t *testing.T) {
	tokens := make([]string, 1100)
	for i := range tokens {
		tokens[i] = "t"
	}
	snips := Snippets(tokens, 512)
	if len(snips) != 3 {
		t.Fatalf("want 3 snippets, got %d", len(snips))
	}
	if len(snips[0]) != 512 || len(snips[2]) != 76 {
		t.Fatalf("snippet sizes: %d, %d", len(snips[0]), len(snips[2]))
	}
	if Snippets(nil, 512) != nil {
		t.Fatal("empty tokens must give nil")
	}
	if Snippets(tokens, 0) != nil {
		t.Fatal("non-positive window must give nil")
	}
}

func TestEmbedderFixedLengthAndNormalised(t *testing.T) {
	e := NewEmbedder(EmbedConfig{})
	short := e.EmbedSource("payload = fetch(endpoint)")
	long := e.EmbedSource(strings.Repeat("def handler(request): upload(request.headers)\n", 500))
	if len(short) != e.Config().Dim() || len(long) != e.Config().Dim() {
		t.Fatalf("vector lengths differ: %d vs %d", len(short), len(long))
	}
	for _, v := range [][]float64{short, long} {
		var ss float64
		for _, x := range v {
			ss += x * x
		}
		if math.Abs(ss-1) > 1e-9 {
			t.Fatalf("vector not L2-normalised: %v", ss)
		}
	}
}

func TestEmbedEmptySource(t *testing.T) {
	e := NewEmbedder(EmbedConfig{})
	v := e.EmbedSource("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty source must embed to zero vector")
		}
	}
	if v := e.EmbedHashed(HashSource(nil, ""), new(EmbedBuffer)); v == nil || len(v) != 0 {
		t.Fatalf("empty source must embed to an empty, non-nil vector, got %v (nil %v)", v, v == nil)
	}
}

func TestSameCodeSimilarEmbedding(t *testing.T) {
	e := NewEmbedder(EmbedConfig{})
	base := strings.Repeat("def collect(env):\n    return send(env, url)\n", 40)
	variant := strings.Replace(base, "url", "url2", 1) // a one-token CC change
	unrelated := strings.Repeat("class Parser:\n    def walk(self, tree): yield tree\n", 40)

	simVariant := Cosine(e.EmbedSource(base), e.EmbedSource(variant))
	simUnrelated := Cosine(e.EmbedSource(base), e.EmbedSource(unrelated))
	if simVariant < 0.95 {
		t.Fatalf("one-line variant similarity %v too low", simVariant)
	}
	if simUnrelated > simVariant {
		t.Fatalf("unrelated code (%v) more similar than variant (%v)", simUnrelated, simVariant)
	}
}

func TestCosineProperties(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]float64, len(raw))
		for i, v := range raw {
			a[i] = float64(v)
		}
		self := Cosine(a, a)
		allZero := true
		for _, v := range a {
			if v != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			return self == 0
		}
		return math.Abs(self-1) < 1e-9 && Cosine(a, a) <= 1.0001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCosineZeroVector(t *testing.T) {
	if got := Cosine([]float64{0, 0}, []float64{1, 2}); got != 0 {
		t.Fatalf("zero-vector cosine = %v", got)
	}
}

func TestSimHashLocality(t *testing.T) {
	base := strings.Repeat("send(environ, endpoint_url)\n", 60)
	variant := strings.Replace(base, "endpoint_url", "endpoint_url2", 2)
	unrelated := strings.Repeat("matrix.transpose().rows.filter(even)\n", 60)

	hBase := SimHash(Tokenize(base))
	hVar := SimHash(Tokenize(variant))
	hUn := SimHash(Tokenize(unrelated))

	if popcount(hBase^hVar) >= popcount(hBase^hUn) {
		t.Fatalf("SimHash not locality sensitive: variant dist %d, unrelated dist %d",
			popcount(hBase^hVar), popcount(hBase^hUn))
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestBands(t *testing.T) {
	b := Bands(0xDEADBEEFCAFEF00D, 4)
	if len(b) != 4 {
		t.Fatalf("want 4 bands, got %d", len(b))
	}
	if b[0] != 0xF00D || b[3] != 0xDEAD {
		t.Fatalf("band extraction wrong: %x", b)
	}
	if got := Bands(1, 0); len(got) != 4 {
		t.Fatal("zero bands must default to 4")
	}
}

func makeItems(t *testing.T, families int, perFamily int) []Item {
	t.Helper()
	e := NewEmbedder(EmbedConfig{})
	var items []Item
	for f := 0; f < families; f++ {
		base := strings.Repeat(fmt.Sprintf("def family%d(a, b):\n    return upload%d(a) + b\n", f, f), 30+7*f)
		for p := 0; p < perFamily; p++ {
			src := base
			if p > 0 { // small CC-style perturbation
				src = strings.Replace(src, "upload", fmt.Sprintf("upload_%d_", p), 1)
			}
			tokens := Tokenize(src)
			items = append(items, Item{
				ID:     fmt.Sprintf("f%d-p%d", f, p),
				Vector: e.EmbedTokens(tokens),
				Hash:   SimHash(tokens),
			})
		}
	}
	return items
}

// clusterAll clusters every LSH partition of items, in partition-key order.
func clusterAll(items []Item, cfg ClusterConfig) []Cluster {
	var out []Cluster
	for _, part := range lshPartitions(items, cfg) {
		if c, ok := ClusterPartition(part, cfg); ok {
			out = append(out, c)
		}
	}
	return out
}

func TestClusterRecoversFamilies(t *testing.T) {
	items := makeItems(t, 4, 5)
	clusters := clusterAll(items, DefaultClusterConfig())
	if len(clusters) != 4 {
		t.Fatalf("want 4 clusters, got %d", len(clusters))
	}
	for _, c := range clusters {
		if len(c.Members) != 5 {
			t.Fatalf("cluster size %d, want 5: %v", len(c.Members), c.Members)
		}
		family := c.Members[0][:2]
		for _, m := range c.Members {
			if m[:2] != family {
				t.Fatalf("mixed cluster: %v", c.Members)
			}
		}
		if c.IntraSim < 0.95 {
			t.Fatalf("intra-group similarity %v below the ~0.999 the paper reports", c.IntraSim)
		}
		if c.Silhouette < 0.3 {
			t.Fatalf("surviving cluster has silhouette %v < 0.3", c.Silhouette)
		}
	}
}

func TestClusterDropsSingletons(t *testing.T) {
	items := makeItems(t, 3, 1) // three unrelated singletons
	if clusters := clusterAll(items, DefaultClusterConfig()); len(clusters) != 0 {
		t.Fatalf("singletons must not form subgraphs (MinSize 2): %v", clusters)
	}
}

func TestClusterEmptyInput(t *testing.T) {
	if c, ok := ClusterPartition(nil, DefaultClusterConfig()); ok {
		t.Fatalf("empty input must give no cluster, got %v", c)
	}
}

func TestClusterDeterminism(t *testing.T) {
	items := makeItems(t, 3, 4)
	a := clusterAll(items, DefaultClusterConfig())
	b := clusterAll(items, DefaultClusterConfig())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic clusters:\n%v\n%v", a, b)
	}
}

func TestKMeansUnassignedBelowThreshold(t *testing.T) {
	vecs := [][]float64{{1, 0}, {0, 1}}
	seeds := [][]float64{{1, 0}}
	assign := KMeans(vecs, seeds, 4, 0.7)
	if assign[0] != 0 {
		t.Fatalf("aligned vector unassigned: %v", assign)
	}
	if assign[1] != -1 {
		t.Fatalf("orthogonal vector must be unassigned: %v", assign)
	}
}

func TestKMeansNoSeeds(t *testing.T) {
	assign := KMeans([][]float64{{1}}, nil, 3, 0.7)
	if assign[0] != -1 {
		t.Fatal("no seeds must leave everything unassigned")
	}
}

func TestSimplifiedSilhouetteSeparatedClusters(t *testing.T) {
	vecs := [][]float64{{1, 0}, {0.99, 0.01}, {0, 1}, {0.01, 0.99}}
	assign := []int{0, 0, 1, 1}
	sil := SimplifiedSilhouette(vecs, assign, 2)
	for c, s := range sil {
		if s < 0.5 {
			t.Fatalf("well-separated cluster %d has silhouette %v", c, s)
		}
	}
}

func TestSimplifiedSilhouetteSingleCluster(t *testing.T) {
	vecs := [][]float64{{1, 0}, {1, 0}}
	sil := SimplifiedSilhouette(vecs, []int{0, 0}, 1)
	if sil[0] < 0.9 {
		t.Fatalf("lone tight cluster silhouette %v", sil[0])
	}
}

func TestSimplifiedSilhouetteZeroK(t *testing.T) {
	if got := SimplifiedSilhouette(nil, nil, 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
}
