// Package maprange exercises the maprange pass: one true positive and one
// sanctioned negative per rule, plus the waiver forms.
package maprange

import (
	"fmt"
	"sort"
)

// --- collect-then-sort ---

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `appends to keys in map order without sorting it afterwards`
	}
	return keys
}

func goodCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type bundle struct{ names []string }

func goodFieldCollectThenSort(m map[string]int) bundle {
	var b bundle
	for k := range m {
		b.names = append(b.names, k)
	}
	sort.Strings(b.names)
	return b
}

// --- keyed transfer ---

func goodKeyedTransfer(src, dst map[string]int) {
	for k, v := range src {
		dst[k] = v
	}
}

func badUnkeyedIndexWrite(m map[string]int, slot map[string]int) {
	for _, v := range m {
		slot["latest"] = v // want `writes through an index not derived from the range key`
	}
}

func goodKeyedDelete(m map[string]int, dst map[string]bool) {
	for k := range m {
		delete(dst, k)
	}
}

func badUnkeyedDelete(m map[string]int, dst map[string]bool) {
	for range m {
		delete(dst, "latest") // want `deletes a key not derived from the range key`
	}
}

// --- commutative accumulation ---

func goodAccumulate(m map[string]int) (int, bool, int) {
	total := 0
	count := 0
	found := false
	best := 0
	for _, v := range m {
		total += v
		count++
		found = found || v < 0
		best = max(best, v)
	}
	return total, found, best + count
}

func goodMinMaxFold(m map[string]int) int {
	best := -1 << 62
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

func badArgmax(m map[string]int) string {
	best := -1 << 62
	var bestKey string
	for k, v := range m {
		if v > best {
			best = v
			bestKey = k // want `assigns to bestKey, declared outside the loop, in iteration order`
		}
	}
	return bestKey
}

func badLastWriter(m map[string]string) string {
	var last string
	for _, v := range m {
		last = v // want `assigns to last, declared outside the loop, in iteration order`
	}
	return last
}

func goodConstSetStore(m map[string][]string, seen map[string]bool) {
	for _, vs := range m {
		for _, v := range vs {
			seen[v] = true
		}
	}
}

// --- escaping control flow ---

func badFirstKey(m map[string]int) string {
	for k := range m {
		return k // want `returns a value derived from map iteration`
	}
	return ""
}

func goodFailFastError(m map[string]func() error) error {
	for _, f := range m {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

func badSend(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want `sends on a channel from inside a map range`
	}
}

func badGoroutine(m map[string]int) {
	for k := range m {
		go fmt.Println(k) // want `spawns a goroutine per map element`
	}
}

func badDefer(m map[string]int) {
	for k := range m {
		defer fmt.Println(k) // want `defers a call per map element`
	}
}

// --- calls ---

func badPrint(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want `calls Println once per map element`
	}
}

func goodInnerSort(m map[string][]string) int {
	n := 0
	for _, vs := range m {
		cp := append([]string(nil), vs...)
		sort.Strings(cp)
		n += len(cp)
	}
	return n
}

func goodClosureReturn(m map[string][]int) {
	for _, vs := range m {
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	}
}

func badOuterSortCall(m map[string]int, acc []int) {
	for range m {
		sort.Ints(acc) // want `calls Ints with acc, declared outside the loop, once per map element`
	}
}

type store struct{ n int }

func (s *store) Add(v int)              { s.n += v }
func (s *store) SetKey(k string, v int) {}

func badMutatorCall(m map[string]int, s *store) {
	for _, v := range m {
		s.Add(v) // want `calls Add for effect on state declared outside the loop`
	}
}

func goodKeyedMutatorCall(m map[string]int, s *store) {
	for k, v := range m {
		s.SetKey(k, v)
	}
}

func badLocalCall(m map[string]int) int {
	total := 0
	add := func(v int) { total += v }
	for _, v := range m {
		add(v) // want `calls add for effect once per map element`
	}
	return total
}

// --- waivers ---

func waivedStatement(m map[string]int, s *store) {
	for _, v := range m {
		//malgraph:nondeterm-ok addition is commutative, the accumulator ignores arrival order
		s.Add(v)
	}
}

func waivedLoop(m map[string]int) []string {
	var keys []string
	//malgraph:nondeterm-ok helper output is consumed as a set by the caller
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}
