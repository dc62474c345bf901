// Package sources models the ten online sources of Table I: the academic
// datasets that ship malware artifacts (Backstabber-Knife, Maloss, Mal-PyPI)
// plus DataDog's public dataset, and the industry feeds that disclose only
// package names/versions (GitHub Advisory, Snyk, Tianwen, Phylum, Socket,
// individual blogs). A Source accumulates observation records; the collection
// pipeline later merges all sources and recovers artifact-less records
// through registry mirrors (§II-B).
package sources

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"malgraph/internal/ecosys"
)

// ID identifies one of the Table I sources.
type ID int

// The ten sources of Table I.
const (
	Backstabber ID = iota + 1
	Maloss
	MalPyPI
	GitHubAdvisory
	Snyk
	Tianwen
	DataDog
	Phylum
	Socket
	Blogs
)

// Kind groups sources as the paper does (Table I "Category").
type Kind int

// Source categories.
const (
	KindAcademia Kind = iota + 1
	KindIndustry
)

// Info is the static catalog entry for a source.
type Info struct {
	ID               ID
	Name             string
	Abbrev           string // Table IV abbreviation
	Kind             Kind
	CarriesArtifacts bool // open-source dataset with downloadable packages
}

// catalog is the Table I source catalog in table order (ascending ID).
var catalog = []Info{
	{ID: Backstabber, Name: "Backstabber-Knife", Abbrev: "B.K", Kind: KindAcademia, CarriesArtifacts: true},
	{ID: Maloss, Name: "Maloss", Abbrev: "M.", Kind: KindAcademia, CarriesArtifacts: true},
	{ID: MalPyPI, Name: "Mal-PyPI", Abbrev: "M.D", Kind: KindAcademia, CarriesArtifacts: true},
	{ID: GitHubAdvisory, Name: "GitHub Advisory", Abbrev: "G.A", Kind: KindIndustry, CarriesArtifacts: false},
	{ID: Snyk, Name: "Snyk.io", Abbrev: "S.i", Kind: KindIndustry, CarriesArtifacts: false},
	{ID: Tianwen, Name: "Tianwen", Abbrev: "T.", Kind: KindIndustry, CarriesArtifacts: false},
	{ID: DataDog, Name: "DataDog", Abbrev: "D.D", Kind: KindIndustry, CarriesArtifacts: true},
	{ID: Phylum, Name: "Phylum", Abbrev: "P.", Kind: KindIndustry, CarriesArtifacts: false},
	{ID: Socket, Name: "Socket", Abbrev: "So.", Kind: KindIndustry, CarriesArtifacts: false},
	{ID: Blogs, Name: "Blogs", Abbrev: "I.B", Kind: KindIndustry, CarriesArtifacts: false},
}

// Catalog returns a copy of the Table I source catalog in table order.
func Catalog() []Info {
	return append([]Info(nil), catalog...)
}

// InfoFor returns the catalog entry for an ID.
func InfoFor(id ID) (Info, bool) {
	for _, info := range catalog {
		if info.ID == id {
			return info, true
		}
	}
	return Info{}, false
}

// String returns the source's short name.
func (id ID) String() string {
	if info, ok := InfoFor(id); ok {
		return info.Name
	}
	return fmt.Sprintf("SourceID(%d)", int(id))
}

// Record is one observation of a malicious package by a source.
type Record struct {
	Coord      ecosys.Coord
	Artifact   *ecosys.Artifact // nil when the source publishes names only
	ObservedAt time.Time
}

// Source is a live observation feed.
type Source struct {
	info Info

	mu      sync.RWMutex
	records map[string]Record
}

// NewSource creates an empty source for the catalog entry.
func NewSource(info Info) *Source {
	return &Source{info: info, records: make(map[string]Record)}
}

// Info returns the static catalog entry.
func (s *Source) Info() Info { return s.info }

// Observe records a package sighting. Artifacts are retained only by
// artifact-carrying sources — industry feeds treat malware as an asset and do
// not share it (§II-B). Re-observations keep the earliest timestamp.
func (s *Source) Observe(coord ecosys.Coord, at time.Time, artifact *ecosys.Artifact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.info.CarriesArtifacts {
		artifact = nil
	}
	key := coord.Key()
	if prev, ok := s.records[key]; ok {
		if prev.ObservedAt.Before(at) {
			return
		}
	}
	s.records[key] = Record{Coord: coord, Artifact: artifact, ObservedAt: at}
}

// Has reports whether the source observed the coordinate.
func (s *Source) Has(coord ecosys.Coord) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.records[coord.Key()]
	return ok
}

// Size returns the number of observed packages.
func (s *Source) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// Records returns all observations sorted by coordinate key.
func (s *Source) Records() []Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := slices.Sorted(maps.Keys(s.records))
	out := make([]Record, len(keys))
	for i, key := range keys {
		out[i] = s.records[key]
	}
	return out
}

// Set is the full collection of sources for a simulated world.
type Set struct {
	byID map[ID]*Source
}

// NewSet instantiates every catalog source.
func NewSet() *Set {
	set := &Set{byID: make(map[ID]*Source, len(catalog))}
	for _, info := range catalog {
		set.byID[info.ID] = NewSource(info)
	}
	return set
}

// Get returns the source for an ID.
func (s *Set) Get(id ID) *Source { return s.byID[id] }

// All returns the sources in catalog order.
func (s *Set) All() []*Source {
	out := make([]*Source, 0, len(s.byID))
	for _, info := range catalog {
		out = append(out, s.byID[info.ID])
	}
	return out
}

// TotalObservations sums Size over all sources (counting duplicates, as the
// paper's Table I does before dedup).
func (s *Set) TotalObservations() int {
	total := 0
	for _, src := range s.All() {
		total += src.Size()
	}
	return total
}
