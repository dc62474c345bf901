// Package ecosys models the open-source software ecosystems the paper studies:
// package coordinates (ecosystem, name, version), package artifacts (source
// files plus a manifest), content hashing, and the naming tricks
// (typosquatting, combosquatting) that OSS malware uses for social engineering.
package ecosys

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Ecosystem identifies a package registry ecosystem.
type Ecosystem int

// The 10 ecosystems covered by the paper's dataset (§II-B). PyPI and NPM
// dominate; the long tail exists so dataset composition matches Table I.
const (
	PyPI Ecosystem = iota + 1
	NPM
	RubyGems
	Maven
	Cocoapods
	SourceForge
	Docker
	Composer
	NuGet
	Rust
)

// All lists every ecosystem in declaration order.
func All() []Ecosystem {
	return []Ecosystem{PyPI, NPM, RubyGems, Maven, Cocoapods, SourceForge, Docker, Composer, NuGet, Rust}
}

// Big3 lists the three ecosystems the paper's per-ecosystem tables cover.
func Big3() []Ecosystem {
	return []Ecosystem{NPM, PyPI, RubyGems}
}

var ecosystemNames = map[Ecosystem]string{
	PyPI:        "PyPI",
	NPM:         "NPM",
	RubyGems:    "RubyGems",
	Maven:       "Maven",
	Cocoapods:   "Cocoapods",
	SourceForge: "SourceForge",
	Docker:      "Docker",
	Composer:    "Composer",
	NuGet:       "NuGet",
	Rust:        "Rust",
}

// String returns the conventional registry name.
func (e Ecosystem) String() string {
	if s, ok := ecosystemNames[e]; ok {
		return s
	}
	return fmt.Sprintf("Ecosystem(%d)", int(e))
}

// SourceExt returns the source-file extension used by packages in this
// ecosystem ("py", "js", "rb"; interpreted languages per §II-A). Ecosystems
// outside the big three default to "js": their packages still carry scannable
// source so every pipeline stage treats them uniformly.
func (e Ecosystem) SourceExt() string {
	switch e {
	case PyPI:
		return "py"
	case NPM, Composer, NuGet, Docker, SourceForge, Maven, Cocoapods, Rust:
		return "js"
	case RubyGems:
		return "rb"
	default:
		return "js"
	}
}

// ManifestName returns the configuration file that declares dependencies for
// this ecosystem (§III-C step 2 reads these).
func (e Ecosystem) ManifestName() string {
	switch e {
	case PyPI:
		return "requirements.txt"
	case RubyGems:
		return "package.gemspec"
	default:
		return "package.json"
	}
}

// Coord is a package coordinate: the identity triple the paper uses for
// duplicate detection and mirror lookups.
type Coord struct {
	Ecosystem Ecosystem `json:"ecosystem"`
	Name      string    `json:"name"`
	Version   string    `json:"version"`
}

// String renders "ecosystem/name@version". Manual concatenation keeps this
// a single allocation — coordinates are stringified once per node and edge
// during graph construction, so Sprintf boxing showed up in profiles.
func (c Coord) String() string {
	eco := c.Ecosystem.String()
	var b strings.Builder
	b.Grow(len(eco) + 1 + len(c.Name) + 1 + len(c.Version))
	b.WriteString(eco)
	b.WriteByte('/')
	b.WriteString(c.Name)
	b.WriteByte('@')
	b.WriteString(c.Version)
	return b.String()
}

// Key returns a map key that uniquely identifies the coordinate.
func (c Coord) Key() string { return c.String() }

// CompareKey compares c.Key() with d.Key() like strings.Compare, without
// building either key: it walks the parts the keys concatenate.
func (c Coord) CompareKey(d Coord) int {
	a := [...]string{c.Ecosystem.String(), "/", c.Name, "@", c.Version}
	b := [...]string{d.Ecosystem.String(), "/", d.Name, "@", d.Version}
	i, j := 0, 0
	x, y := a[0], b[0]
	for {
		for x == "" && i+1 < len(a) {
			i++
			x = a[i]
		}
		for y == "" && j+1 < len(b) {
			j++
			y = b[j]
		}
		if x == "" || y == "" {
			// One key is exhausted: it is the smaller unless both are.
			return strings.Compare(x, y)
		}
		n := min(len(x), len(y))
		if r := strings.Compare(x[:n], y[:n]); r != 0 {
			return r
		}
		x, y = x[n:], y[n:]
	}
}

// File is one file inside a package artifact.
type File struct {
	Path    string `json:"path"`
	Content string `json:"content"`
}

// Artifact is the unpacked content of a package: its files (source +
// manifest) as shipped to the registry. Artifacts are treated as immutable
// after construction; Hash caches are computed on demand.
type Artifact struct {
	Coord       Coord  `json:"coord"`
	Description string `json:"description"`
	Files       []File `json:"files"`

	hash string // lazily computed SHA-256, see Hash
}

// NewArtifact builds an artifact with its files sorted by path, the canonical
// order the paper's similarity pipeline uses (§III-B step 2).
func NewArtifact(coord Coord, description string, files []File) *Artifact {
	sorted := make([]File, len(files))
	copy(sorted, files)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	return &Artifact{Coord: coord, Description: description, Files: sorted}
}

// Hash returns the SHA-256 over the canonical byte serialization of the
// artifact's content (paper §III-A uses SHA-256 over the malware code to
// confirm duplicate relationships).
func (a *Artifact) Hash() string {
	if a.hash != "" {
		return a.hash
	}
	// Length-prefixed framing, "<len>:<path><len>:<content>" per file,
	// prevents cross-file content ambiguity. The whole serialization (two
	// decimal lengths are at most 40 bytes) goes into one buffer, hashed in
	// one call: a stack buffer for most artifacts, one sized allocation for
	// the rest.
	size := 0
	for _, f := range a.Files {
		size += 40 + 2 + len(f.Path) + len(f.Content)
	}
	buf := make([]byte, 0, 8192)
	if size > cap(buf) {
		buf = make([]byte, 0, size)
	}
	for _, f := range a.Files {
		buf = strconv.AppendInt(buf, int64(len(f.Path)), 10)
		buf = append(buf, ':')
		buf = append(buf, f.Path...)
		buf = strconv.AppendInt(buf, int64(len(f.Content)), 10)
		buf = append(buf, ':')
		buf = append(buf, f.Content...)
	}
	sum := sha256.Sum256(buf)
	a.hash = hex.EncodeToString(sum[:])
	return a.hash
}

// SourceFiles returns files with recognised source extensions (.py/.js/.rb),
// mirroring §III-B step 1 ("finding all source code files").
func (a *Artifact) SourceFiles() []File {
	var out []File
	for _, f := range a.Files {
		if IsSourcePath(f.Path) {
			out = append(out, f)
		}
	}
	return out
}

// Manifest returns the dependency-declaring file and true, or false when the
// artifact ships no manifest.
func (a *Artifact) Manifest() (File, bool) {
	want := a.Coord.Ecosystem.ManifestName()
	for _, f := range a.Files {
		if f.Path == want {
			return f, true
		}
	}
	return File{}, false
}

// MergedSource concatenates all source files in path order into one blob,
// each followed by a newline: the representation the similarity pipeline
// embeds (§III-B step 2).
func (a *Artifact) MergedSource() string { return string(a.AppendMergedSource(nil)) }

// AppendMergedSource appends the MergedSource blob to dst, growing it at
// most once, and returns the extended slice, so a caller that only scans
// the blob can assemble every artifact's into one reused buffer.
func (a *Artifact) AppendMergedSource(dst []byte) []byte {
	n := 0
	for _, f := range a.Files {
		if IsSourcePath(f.Path) {
			n += len(f.Content) + 1
		}
	}
	dst = slices.Grow(dst, n)
	for _, f := range a.Files {
		if IsSourcePath(f.Path) {
			dst = append(dst, f.Content...)
			dst = append(dst, '\n')
		}
	}
	return dst
}

// Clone returns a deep copy whose files may be mutated independently.
func (a *Artifact) Clone() *Artifact {
	files := make([]File, len(a.Files))
	copy(files, a.Files)
	return &Artifact{Coord: a.Coord, Description: a.Description, Files: files}
}

// IsSourcePath reports whether the path has one of the interpreted-language
// extensions the paper scans (.js, .py, .rb).
func IsSourcePath(path string) bool {
	return strings.HasSuffix(path, ".py") || strings.HasSuffix(path, ".js") || strings.HasSuffix(path, ".rb")
}

// Release records one package release event in a registry: the unit of the
// paper's timeline analysis (Fig. 7) and life-cycle model (Fig. 1).
type Release struct {
	Coord      Coord     `json:"coord"`
	ReleasedAt time.Time `json:"releasedAt"`
	RemovedAt  time.Time `json:"removedAt"` // zero ⇒ never removed
	Malicious  bool      `json:"malicious"`
}

// Removed reports whether the registry administrator has taken the release down.
func (r Release) Removed() bool { return !r.RemovedAt.IsZero() }

// PersistedFor returns how long the release stayed in the registry before
// takedown; for never-removed packages it returns the duration until horizon.
func (r Release) PersistedFor(horizon time.Time) time.Duration {
	if r.Removed() {
		return r.RemovedAt.Sub(r.ReleasedAt)
	}
	return horizon.Sub(r.ReleasedAt)
}
