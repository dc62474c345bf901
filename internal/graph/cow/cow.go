// Package cow provides Map, a string-keyed hash map with an O(1) Clone.
//
// A Map splits its keys over a table of small shards. The map, its table
// and each shard carry a generation: a map writes in place only what
// carries its own generation. Clone hands the clone the same table and
// gives both sides fresh generations, so whichever writes next copies the
// table on its first write after the Clone and each shard on its first
// write to that shard. A write never reaches a map it was cloned from or
// to. This is what lets the epoch read path publish an immutable view of a
// growing corpus without copying the corpus: the writer copies the shards
// a batch touches plus the table, which is one 32-byte shard header per 4
// to 8 keys — that table copy is the one per-publish term that still grows
// with the map.
//
// A shard is a short slice of (hash, key, value) entries, not a Go map:
// copying one is a single allocation and memcpy, and a lookup scans a few
// stored 64-bit hashes, which keeps Get and Set at Go-map cost. The table
// doubles when the average shard outgrows maxLoad, so shards stay short
// however large the map grows.
//
// Values are shared by Clone, not copied: callers store immutable values
// (or pointers they never write through once shared) and replace them with
// Set to change them. The only iteration is Keys, in sorted order, so no
// caller can depend on hash placement.
package cow

import (
	"hash/maphash"
	"slices"
	"sort"
	"sync/atomic"
)

// maxLoad is the average shard length past which the table doubles.
const maxLoad = 8

// seed is per process: shard placement is never observable through the API.
var seed = maphash.MakeSeed()

type entry[V any] struct {
	h uint64
	k string
	v V
}

// shard is one run of entries, writable in place only by the map whose
// generation is gen.
type shard[V any] struct {
	gen uint64
	e   []entry[V]
}

var generations atomic.Uint64

func nextGen() uint64 { return generations.Add(1) }

// Map is a copy-on-write map from string keys to V. The zero value is an
// empty map ready to use.
//
// A Map is not safe for concurrent use on its own: Set, Delete and Clone
// need exclusive access; Get, Len and Keys may run concurrently with each
// other. Maps related by Clone share nothing mutable, so each may be
// written under its own lock while the others are read. A Map must not be
// copied by value (go vet's copylocks check enforces it): the copy would
// write into the original's shards. Use Clone.
//
// The zero value has generation 0, which no Clone hands out, so it owns
// what it creates and shares nothing.
type Map[V any] struct {
	_      noCopy
	gen    uint64     // stamps the table and shards this map may write in place
	bits   uint       // the table has 1<<bits shards
	tab    []shard[V] // nil until the first Set
	tabGen uint64     // generation of the map that allocated tab
	n      int
}

// noCopy makes go vet's copylocks check reject Map copies.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

func hash(k string) uint64 { return maphash.String(seed, k) }

// shard returns the shard index of hash h (the top bits).
func (m *Map[V]) shard(h uint64) int { return int(h >> (64 - m.bits)) }

// find returns the index of k in shard i, or -1.
func (m *Map[V]) find(i int, h uint64, k string) int {
	s := m.tab[i].e
	for j := range s {
		if s[j].h == h && s[j].k == k {
			return j
		}
	}
	return -1
}

// Get returns the value stored under k.
func (m *Map[V]) Get(k string) (V, bool) {
	if m.n > 0 {
		h := hash(k)
		i := m.shard(h)
		if j := m.find(i, h, k); j >= 0 {
			return m.tab[i].e[j].v, true
		}
	}
	var zero V
	return zero, false
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return m.n }

// Set stores v under k.
func (m *Map[V]) Set(k string, v V) { *m.Slot(k) = v }

// Slot returns a pointer to the value stored under k, storing the zero
// value first if k is absent: a read-modify-write in one lookup. The
// pointer is valid until the next write to m.
func (m *Map[V]) Slot(k string) *V {
	h := hash(k)
	i := m.shard(h)
	if m.tab != nil {
		m.own(i)
		if j := m.find(i, h, k); j >= 0 {
			return &m.tab[i].e[j].v
		}
	}
	return m.insert(h, k)
}

// Insert stores v under k unless k is present, and reports whether it did.
// Finding k present copies nothing.
func (m *Map[V]) Insert(k string, v V) bool {
	h := hash(k)
	if m.tab != nil && m.find(m.shard(h), h, k) >= 0 {
		return false
	}
	*m.insert(h, k) = v
	return true
}

// insert appends an absent key with the zero value and returns its slot.
func (m *Map[V]) insert(h uint64, k string) *V {
	if m.tab == nil {
		m.tab, m.tabGen = []shard[V]{{gen: m.gen}}, m.gen
	}
	i := m.shard(h)
	m.own(i)
	m.tab[i].e = append(m.tab[i].e, entry[V]{h: h, k: k})
	m.n++
	if m.n > maxLoad<<m.bits {
		m.grow()
		i = m.shard(h)
	}
	s := m.tab[i].e
	for j := len(s) - 1; ; j-- {
		if s[j].h == h && s[j].k == k {
			return &s[j].v
		}
	}
}

// Delete removes k and reports whether it was present. Deleting an absent
// key copies nothing.
func (m *Map[V]) Delete(k string) bool {
	if m.n == 0 {
		return false
	}
	h := hash(k)
	i := m.shard(h)
	j := m.find(i, h, k)
	if j < 0 {
		return false
	}
	m.own(i)
	s := m.tab[i].e
	last := len(s) - 1
	s[j] = s[last]
	s[last] = entry[V]{}
	m.tab[i].e = s[:last]
	m.n--
	return true
}

// own makes shard i (and the table) this map's to write, copying them
// first if they carry another map's generation.
func (m *Map[V]) own(i int) {
	if m.tabGen != m.gen {
		m.tab, m.tabGen = slices.Clone(m.tab), m.gen
	}
	if sh := &m.tab[i]; sh.gen != m.gen {
		// Room for one more entry: most first writes after a Clone insert.
		c := make([]entry[V], len(sh.e), len(sh.e)+1)
		copy(c, sh.e)
		sh.gen, sh.e = m.gen, c
	}
}

// grow doubles the table, splitting every shard by the next hash bit. The
// new table and shards are fresh, so all of them are this map's.
func (m *Map[V]) grow() {
	bits := m.bits + 1
	tab := make([]shard[V], 1<<bits)
	for i, sh := range m.tab {
		lo := make([]entry[V], 0, len(sh.e))
		var hi []entry[V]
		for _, e := range sh.e {
			if e.h>>(64-bits)&1 == 0 {
				lo = append(lo, e)
			} else {
				hi = append(hi, e)
			}
		}
		tab[2*i], tab[2*i+1] = shard[V]{gen: m.gen, e: lo}, shard[V]{gen: m.gen, e: hi}
	}
	m.bits, m.tab, m.tabGen = bits, tab, m.gen
}

// Clone returns a map with the same contents in O(1). Both maps get fresh
// generations, so later writes to either copy what they touch first and
// neither observes the other's writes.
func (m *Map[V]) Clone() Map[V] {
	m.gen = nextGen()
	return Map[V]{gen: nextGen(), bits: m.bits, tab: m.tab, tabGen: m.tabGen, n: m.n}
}

// Keys returns every key, sorted.
func (m *Map[V]) Keys() []string {
	keys := make([]string, 0, m.n)
	for _, sh := range m.tab {
		for j := range sh.e {
			keys = append(keys, sh.e[j].k)
		}
	}
	sort.Strings(keys)
	return keys
}
