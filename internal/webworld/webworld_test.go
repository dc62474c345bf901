package webworld

import (
	"strings"
	"testing"

	"malgraph/internal/xrand"
)

func TestAddAndFetch(t *testing.T) {
	w := New()
	p := &Page{URL: "https://snyk.example/report/1", Site: "snyk.example", Title: "Malicious package found", Body: "body"}
	if err := w.AddPage(p); err != nil {
		t.Fatal(err)
	}
	got, err := w.Fetch(p.URL)
	if err != nil || got.Title != p.Title {
		t.Fatalf("fetch: %v %v", got, err)
	}
	if err := w.AddPage(p); err == nil {
		t.Fatal("duplicate URL must fail")
	}
	if _, err := w.Fetch("https://nowhere.example/"); err == nil {
		t.Fatal("404 expected")
	}
}

func TestSearchRanking(t *testing.T) {
	w := New()
	mustAdd(t, w, &Page{URL: "u1", Site: "a", Title: "malicious npm package campaign", Body: ""})
	mustAdd(t, w, &Page{URL: "u2", Site: "a", Title: "malicious pypi flood", Body: ""})
	mustAdd(t, w, &Page{URL: "u3", Site: "a", Title: "kittens and puppies", Body: ""})

	got := w.Search("malicious npm package", 10)
	if len(got) < 2 || got[0] != "u1" {
		t.Fatalf("search = %v", got)
	}
	for _, u := range got {
		if u == "u3" {
			t.Fatal("irrelevant page ranked")
		}
	}
}

func TestSearchLimit(t *testing.T) {
	w := New()
	for i := 0; i < 10; i++ {
		mustAdd(t, w, &Page{URL: string(rune('a' + i)), Site: "s", Title: "malicious package report", Body: ""})
	}
	if got := w.Search("malicious package", 3); len(got) != 3 {
		t.Fatalf("limit not applied: %d", len(got))
	}
}

func TestSearchDeterministic(t *testing.T) {
	w := New()
	mustAdd(t, w, &Page{URL: "b", Site: "s", Title: "malicious package", Body: ""})
	mustAdd(t, w, &Page{URL: "a", Site: "s", Title: "malicious package", Body: ""})
	first := w.Search("malicious package", 0)
	for i := 0; i < 5; i++ {
		again := w.Search("malicious package", 0)
		if strings.Join(first, ",") != strings.Join(again, ",") {
			t.Fatal("search nondeterministic")
		}
	}
	if first[0] != "a" {
		t.Fatalf("tie break not lexicographic: %v", first)
	}
}

func TestNoisePage(t *testing.T) {
	rng := xrand.New(1)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		p := NoisePage(rng, "blog.example", i)
		if p.IsReport {
			t.Fatal("noise page marked as report")
		}
		if seen[p.URL] {
			t.Fatalf("duplicate noise URL %s", p.URL)
		}
		seen[p.URL] = true
	}
}

func mustAdd(t *testing.T, w *Web, p *Page) {
	t.Helper()
	if err := w.AddPage(p); err != nil {
		t.Fatal(err)
	}
}
