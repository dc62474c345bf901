package textsim

import (
	"math"
	"testing"
)

func TestExactSilhouetteSeparatedClusters(t *testing.T) {
	vecs := [][]float64{
		{1, 0}, {0.99, 0.01}, {0.98, 0.02},
		{0, 1}, {0.01, 0.99}, {0.02, 0.98},
	}
	assign := []int{0, 0, 0, 1, 1, 1}
	sil := ExactSilhouette(vecs, assign, 2)
	for c, s := range sil {
		if s < 0.8 {
			t.Fatalf("cluster %d exact silhouette %v too low", c, s)
		}
	}
}

func TestExactSilhouetteMixedCluster(t *testing.T) {
	// Cluster 0 contains a point that clearly belongs with cluster 1: its
	// silhouette must drag cluster 0's average down.
	vecs := [][]float64{
		{1, 0}, {0.99, 0.01}, {0.02, 0.99}, // third point misplaced
		{0, 1}, {0.01, 0.98},
	}
	assign := []int{0, 0, 0, 1, 1}
	sil := ExactSilhouette(vecs, assign, 2)
	if sil[0] >= sil[1] {
		t.Fatalf("contaminated cluster must score lower: %v", sil)
	}
}

func TestExactSilhouetteSingleton(t *testing.T) {
	vecs := [][]float64{{1, 0}, {0, 1}, {0.01, 0.99}}
	assign := []int{0, 1, 1}
	sil := ExactSilhouette(vecs, assign, 2)
	if sil[0] != 0 {
		t.Fatalf("singleton cluster silhouette = %v, scikit convention is 0", sil[0])
	}
}

func TestExactSilhouetteZeroK(t *testing.T) {
	if got := ExactSilhouette(nil, nil, 0); got != nil {
		t.Fatal("k=0 must return nil")
	}
}

// TestSilhouetteAgreement validates the pipeline's centroid approximation:
// on compact, well-separated clusters (the regime where the 0.3 filter
// operates) the simplified and exact statistics must agree to within 0.15.
func TestSilhouetteAgreement(t *testing.T) {
	items := makeItems(t, 5, 6)
	vecs := make([][]float64, len(items))
	assign := make([]int, len(items))
	for i, it := range items {
		vecs[i] = it.Vector
		assign[i] = i / 6 // items are generated family-by-family
	}
	exact := ExactSilhouette(vecs, assign, 5)
	approx := SimplifiedSilhouette(vecs, assign, 5)
	for c := range exact {
		if math.Abs(exact[c]-approx[c]) > 0.15 {
			t.Errorf("cluster %d: exact %v vs simplified %v", c, exact[c], approx[c])
		}
		// Both must clear the paper's 0.3 acceptance threshold here.
		if exact[c] < 0.3 || approx[c] < 0.3 {
			t.Errorf("cluster %d below threshold: exact %v simplified %v", c, exact[c], approx[c])
		}
	}
}

// ExactSilhouette computes the true silhouette coefficient (Rousseeuw 1987)
// per cluster under cosine distance — the statistic the paper computes with
// scikit-learn. It is O(n²), so the clustering uses the simplified
// (centroid) silhouette instead, whose approximation TestSilhouetteAgreement
// checks against this function.
//
// Per scikit convention, points in singleton clusters score 0.
func ExactSilhouette(vecs [][]float64, assign []int, k int) []float64 {
	if k == 0 {
		return nil
	}
	members := make([][]int, k)
	for i, c := range assign {
		if c >= 0 && c < k {
			members[c] = append(members[c], i)
		}
	}
	// Pairwise cosine distances, computed lazily per point against each
	// cluster to avoid materialising the full n×n matrix.
	meanDistTo := func(i int, cluster []int, excludeSelf bool) (float64, int) {
		var sum float64
		n := 0
		for _, j := range cluster {
			if excludeSelf && j == i {
				continue
			}
			sum += 1 - Cosine(vecs[i], vecs[j])
			n++
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	}

	sums := make([]float64, k)
	counts := make([]int, k)
	for c := 0; c < k; c++ {
		for _, i := range members[c] {
			if len(members[c]) < 2 {
				// Singleton cluster: silhouette defined as 0.
				counts[c]++
				continue
			}
			a, _ := meanDistTo(i, members[c], true)
			b := -1.0
			for o := 0; o < k; o++ {
				if o == c || len(members[o]) == 0 {
					continue
				}
				if d, n := meanDistTo(i, members[o], false); n > 0 && (b < 0 || d < b) {
					b = d
				}
			}
			if b < 0 {
				// No other cluster exists; treat as maximally separated.
				b = 1
			}
			den := a
			if b > den {
				den = b
			}
			s := 0.0
			if den > 0 {
				s = (b - a) / den
			}
			sums[c] += s
			counts[c]++
		}
	}
	out := make([]float64, k)
	for c := range out {
		if counts[c] > 0 {
			out[c] = sums[c] / float64(counts[c])
		}
	}
	return out
}
