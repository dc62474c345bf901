package cow

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"malgraph/internal/xrand"
)

// TestMapMatchesModel drives a family of maps related by Clone with a
// seeded schedule of Set, Slot, Insert and Delete, checking every map
// against a plain Go map after each step's writes: contents, Len and sorted
// Keys. The key space is large enough for the table to double several
// times while clones still share shards.
func TestMapMatchesModel(t *testing.T) {
	rng := xrand.New(7)
	type pair struct {
		m     *Map[int]
		model map[string]int
	}
	maps := []*pair{{m: &Map[int]{}, model: map[string]int{}}}
	for step := 0; step < 20000; step++ {
		p := maps[0]
		if rng.Intn(4) == 0 {
			p = maps[rng.Intn(len(maps))]
		}
		k := fmt.Sprintf("k%04d", rng.Intn(3000))
		switch op := rng.Intn(100); {
		case op < 1:
			c := p.m.Clone()
			model := make(map[string]int, len(p.model))
			for key, v := range p.model {
				model[key] = v
			}
			maps = append(maps, &pair{m: &c, model: model})
		case op < 40:
			p.m.Set(k, step)
			p.model[k] = step
		case op < 55:
			*p.m.Slot(k) += step
			p.model[k] += step
		case op < 75:
			_, present := p.model[k]
			if got := p.m.Insert(k, step); got == present {
				t.Fatalf("step %d: Insert(%s) = %v with the key present = %v", step, k, got, present)
			}
			if !present {
				p.model[k] = step
			}
		default:
			_, want := p.model[k]
			if got := p.m.Delete(k); got != want {
				t.Fatalf("step %d: Delete(%s) = %v, want %v", step, k, got, want)
			}
			delete(p.model, k)
		}
		if step%1000 != 999 {
			continue
		}
		for i, q := range maps {
			if q.m.Len() != len(q.model) {
				t.Fatalf("step %d map %d: Len = %d, want %d", step, i, q.m.Len(), len(q.model))
			}
			want := make([]string, 0, len(q.model))
			for key, v := range q.model {
				want = append(want, key)
				if got, ok := q.m.Get(key); !ok || got != v {
					t.Fatalf("step %d map %d: Get(%s) = %d, %v, want %d", step, i, key, got, ok, v)
				}
			}
			sort.Strings(want)
			if got := q.m.Keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d map %d: Keys differ (%d vs %d)", step, i, len(got), len(want))
			}
			if _, ok := q.m.Get("absent"); ok {
				t.Fatalf("step %d map %d: Get of an absent key succeeded", step, i)
			}
		}
	}
	if len(maps) < 50 || maps[0].m.bits < 6 {
		t.Fatalf("schedule too small: %d maps, %d table bits", len(maps), maps[0].m.bits)
	}
}

func TestZeroMap(t *testing.T) {
	var m Map[string]
	if _, ok := m.Get("a"); ok || m.Len() != 0 || m.Delete("a") || len(m.Keys()) != 0 {
		t.Fatal("zero Map is not empty")
	}
	c := m.Clone()
	c.Set("a", "x")
	if _, ok := m.Get("a"); ok {
		t.Fatal("write to a clone of the zero Map reached the original")
	}
	if v, ok := c.Get("a"); !ok || v != "x" {
		t.Fatalf("clone Get = %q, %v", v, ok)
	}
}
