// Package attacker simulates the threat actors behind the paper's corpus.
// Each campaign type reproduces one attack pattern from §V:
//
//   - Similar-code campaigns (§V-B): one code base released repeatedly under
//     fresh names (CN ≈ 88.65%) or bumped versions (CV ≈ 11.35%), with
//     occasional description (CD), dependency (CDep) and ~1-line code (CC)
//     changes — Fig. 4's repeating attack.
//   - Dependent-hidden campaigns (§V-C, Fig. 5): a malicious dependency
//     package plus front packages that hide behind it via manifest and/or
//     source imports.
//   - Registry floods (§II, Fig. 7): thousands of packages in days, the
//     Feb-2023 PyPI event.
//   - Singletons: one-off packages with unique code bases.
//
// The simulator releases every package into the root registry with a
// detection/takedown time, and keeps a ground-truth ledger that calibration
// tests compare pipeline output against.
//
// The campaign methods make every random draw, serially and in a fixed
// order, and queue their releases; Render then builds the queued code bases
// and artifacts across workers — each a pure function of its own derived
// stream — and publishes the releases in queue order. The result does not
// depend on the worker count.
package attacker

import (
	"fmt"
	"slices"
	"time"

	"malgraph/internal/codegen"
	"malgraph/internal/ecosys"
	"malgraph/internal/parallel"
	"malgraph/internal/registry"
	"malgraph/internal/xrand"
)

// CampaignKind classifies an attack campaign.
type CampaignKind int

// Campaign kinds.
const (
	KindSimilarCode CampaignKind = iota + 1
	KindDependentHidden
	KindFlood
	KindSingleton
)

var kindNames = map[CampaignKind]string{
	KindSimilarCode:     "similar-code",
	KindDependentHidden: "dependent-hidden",
	KindFlood:           "flood",
	KindSingleton:       "singleton",
}

// String names the campaign kind.
func (k CampaignKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("CampaignKind(%d)", int(k))
}

// PackageRecord is the ground truth for one released malicious package. Its
// Artifact is nil until Simulator.Render has run.
type PackageRecord struct {
	Artifact   *ecosys.Artifact
	ReleasedAt time.Time
	RemovedAt  time.Time
	CampaignID string
	Kind       CampaignKind
	CodeBaseID string
	IsDepCore  bool // true for the hidden dependency package of a dep campaign
}

// Campaign is the ground truth for one attack campaign.
type Campaign struct {
	ID       string
	Kind     CampaignKind
	Eco      ecosys.Ecosystem
	Payload  codegen.PayloadKind // primary payload family (0 when mixed)
	Packages []*PackageRecord
	DepCores []string // names of hidden dependency packages (dep campaigns)
}

// OpRates are the per-release probabilities of each changing operation,
// calibrated against Fig. 9.
type OpRates struct {
	Rename      float64 // CN vs CV split: P(new name); else bump version
	Description float64 // P(CD)
	Dependency  float64 // P(CDep)
	Code        float64 // P(CC)
}

// Simulator creates campaigns and publishes their packages to a fleet.
type Simulator struct {
	rng    *xrand.RNG
	fleet  *registry.Fleet
	forges map[ecosys.Ecosystem]*ecosys.NameForge
	nextID int

	// bases and releases are drawn but not yet rendered (see Render).
	bases    []*pendingBase
	releases []pendingRelease
}

// pendingBase is a code base whose derived stream is fixed but whose
// vocabulary and filler are not yet rendered.
type pendingBase struct {
	id      string
	eco     ecosys.Ecosystem
	payload codegen.PayloadKind
	rng     *xrand.RNG
	cb      *codegen.CodeBase
}

// pendingRelease is a release whose record is drawn but whose artifact is
// not yet rendered.
type pendingRelease struct {
	rec   *PackageRecord
	base  *pendingBase
	coord ecosys.Coord
	opts  codegen.Options
}

// NewSimulator returns a simulator drawing from the given stream and
// releasing into fleet.
func NewSimulator(rng *xrand.RNG, fleet *registry.Fleet) *Simulator {
	return &Simulator{
		rng:    rng,
		fleet:  fleet,
		forges: make(map[ecosys.Ecosystem]*ecosys.NameForge),
	}
}

func (s *Simulator) forge(eco ecosys.Ecosystem) *ecosys.NameForge {
	f, ok := s.forges[eco]
	if !ok {
		f = ecosys.NewNameForge(s.rng.Derive("forge/" + eco.String()))
		s.forges[eco] = f
	}
	return f
}

func (s *Simulator) campaignID(kind CampaignKind, eco ecosys.Ecosystem) string {
	s.nextID++
	return fmt.Sprintf("%s-%s-%04d", kind, eco, s.nextID)
}

// codeBase queues a code base for rendering; rng must be derived for it
// alone.
func (s *Simulator) codeBase(id string, eco ecosys.Ecosystem, payload codegen.PayloadKind, rng *xrand.RNG) *pendingBase {
	b := &pendingBase{id: id, eco: eco, payload: payload, rng: rng}
	s.bases = append(s.bases, b)
	return b
}

// release appends rec to the campaign and queues its artifact, coord
// instantiated from base with opts, for rendering and publication.
func (s *Simulator) release(c *Campaign, rec *PackageRecord, base *pendingBase, coord ecosys.Coord, opts codegen.Options) {
	rec.CampaignID, rec.CodeBaseID = c.ID, base.id
	c.Packages = append(c.Packages, rec)
	s.releases = append(s.releases, pendingRelease{rec: rec, base: base, coord: coord, opts: opts})
}

// Render builds every queued code base and artifact across workers, then
// publishes the queued releases to their root registries in the order the
// campaign methods drew them. Until it runs, the queued records have no
// Artifact and the registries do not hold them.
func (s *Simulator) Render() error {
	bases, releases := s.bases, s.releases
	s.bases, s.releases = nil, nil
	parallel.ForEach(len(bases), func(i int) {
		b := bases[i]
		b.cb = codegen.NewCodeBase(b.id, b.eco, b.payload, b.rng)
	})
	parallel.ForEach(len(releases), func(i int) {
		r := releases[i]
		r.rec.Artifact = r.base.cb.Instantiate(r.coord, r.opts)
	})
	for _, r := range releases {
		if err := s.publish(r.rec); err != nil {
			return err
		}
	}
	return nil
}

// publish releases a record into the root registry and registers takedown.
func (s *Simulator) publish(rec *PackageRecord) error {
	root, ok := s.fleet.Root(rec.Artifact.Coord.Ecosystem)
	if !ok {
		return fmt.Errorf("attacker: no root registry for %s", rec.Artifact.Coord.Ecosystem)
	}
	if err := root.Publish(rec.Artifact, rec.ReleasedAt, true); err != nil {
		return fmt.Errorf("attacker publish: %w", err)
	}
	if !rec.RemovedAt.IsZero() {
		if err := root.Remove(rec.Artifact.Coord, rec.RemovedAt); err != nil {
			return fmt.Errorf("attacker takedown: %w", err)
		}
	}
	return nil
}

// SimilarConfig parameterises one similar-code campaign.
type SimilarConfig struct {
	Eco        ecosys.Ecosystem
	Size       int           // number of releases
	Start      time.Time     // first release instant
	Active     time.Duration // t_last − t_first target
	Rates      OpRates
	Takedown   TakedownModel
	Payload    codegen.PayloadKind
	SquatNames bool // typosquat popular packages vs fresh names
}

// TakedownModel draws per-package persistence (release → removal delay).
type TakedownModel struct {
	MeanDays float64 // mean persistence in days
	MinHours float64 // lower bound in hours
}

func (m TakedownModel) draw(rng *xrand.RNG) time.Duration {
	if m.MeanDays <= 0 {
		m.MeanDays = 3
	}
	days := rng.ExpFloat64() * m.MeanDays
	d := time.Duration(days * 24 * float64(time.Hour))
	if minD := time.Duration(m.MinHours * float64(time.Hour)); d < minD {
		d = minD
	}
	return d
}

// SimilarCampaign draws one repeated-attempt campaign and queues every
// release. The first release uses a fresh code base; each subsequent release
// applies the changing operations drawn from cfg.Rates.
func (s *Simulator) SimilarCampaign(cfg SimilarConfig) (*Campaign, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("attacker: similar campaign size %d", cfg.Size)
	}
	rng := s.rng.Derive("similar/" + cfg.Start.String() + cfg.Eco.String() + fmt.Sprint(s.nextID))
	c := &Campaign{ID: s.campaignID(KindSimilarCode, cfg.Eco), Kind: KindSimilarCode, Eco: cfg.Eco, Payload: cfg.Payload}
	cb := s.codeBase(c.ID+"/cb", cfg.Eco, cfg.Payload, rng.Derive("cb"))

	name := s.nextName(cfg.Eco, cfg.SquatNames)
	version := ecosys.Version(rng)
	desc := description(rng)
	deps := initialDeps(cfg.Eco, rng)
	var ioc *codegen.IoC // nil: the code base's own indicators

	releaseTimes := spreadTimes(rng, cfg.Start, cfg.Active, cfg.Size)
	for i := 0; i < cfg.Size; i++ {
		if i > 0 {
			if rng.Bool(cfg.Rates.Rename) {
				name = s.nextName(cfg.Eco, cfg.SquatNames)
				version = ecosys.Version(rng)
			} else {
				version = ecosys.BumpVersion(version)
			}
			if rng.Bool(cfg.Rates.Description) {
				desc = description(rng)
			}
			if rng.Bool(cfg.Rates.Dependency) {
				deps = toggleDep(deps, cfg.Eco, rng)
			}
			if rng.Bool(cfg.Rates.Code) {
				next := codegen.RandomIoC(rng.Derive(fmt.Sprintf("ioc%d", i)))
				ioc = &next
			}
		}
		rec := &PackageRecord{ReleasedAt: releaseTimes[i], Kind: KindSimilarCode}
		rec.RemovedAt = rec.ReleasedAt.Add(cfg.Takedown.draw(rng))
		s.release(c, rec, cb, ecosys.Coord{Ecosystem: cfg.Eco, Name: name, Version: version}, codegen.Options{
			Description:  desc,
			Dependencies: append([]string(nil), deps...),
			IoCOverride:  ioc,
		})
	}
	return c, nil
}

// DepSpec describes one hidden dependency package and its front count,
// mirroring Table VIII rows ("urllib" reused by 448 fronts, ...).
type DepSpec struct {
	Name   string
	Fronts int
}

// DepHiddenConfig parameterises one dependent-hidden campaign (one connected
// subgraph of Table VII).
type DepHiddenConfig struct {
	Eco      ecosys.Ecosystem
	Specs    []DepSpec
	Start    time.Time
	Active   time.Duration
	Takedown TakedownModel
	// Bridges adds fronts depending on two cores so multi-core campaigns
	// form one connected subgraph (the paper's "largest subgraph is formed
	// by multiple dependencies reused by different malicious packages").
	Bridges int
}

// DependentHiddenCampaign queues the hidden dependency packages first,
// then their fronts (Fig. 5 steps 1–3).
func (s *Simulator) DependentHiddenCampaign(cfg DepHiddenConfig) (*Campaign, error) {
	if len(cfg.Specs) == 0 {
		return nil, fmt.Errorf("attacker: dependent-hidden campaign needs specs")
	}
	rng := s.rng.Derive("dephidden/" + cfg.Start.String() + cfg.Eco.String() + fmt.Sprint(s.nextID))
	c := &Campaign{ID: s.campaignID(KindDependentHidden, cfg.Eco), Kind: KindDependentHidden, Eco: cfg.Eco}

	totalFronts := cfg.Bridges + 2*(len(cfg.Specs)-1)
	for _, spec := range cfg.Specs {
		totalFronts += spec.Fronts
	}
	times := spreadTimes(rng, cfg.Start, cfg.Active, totalFronts+len(cfg.Specs))
	ti := 0

	// Release the dependency cores first; cores persist longer than fronts
	// (they must stay installable for the attack to trigger).
	coreCoords := make([]ecosys.Coord, 0, len(cfg.Specs))
	for _, spec := range cfg.Specs {
		if !s.forge(cfg.Eco).ClaimExact(spec.Name) {
			return nil, fmt.Errorf("attacker: dependency name %q already taken", spec.Name)
		}
		cb := s.codeBase(c.ID+"/core/"+spec.Name, cfg.Eco, codegen.PayloadEnvExfil, rng.Derive("core"+spec.Name))
		coord := ecosys.Coord{Ecosystem: cfg.Eco, Name: spec.Name, Version: ecosys.Version(rng)}
		opts := codegen.Options{Description: description(rng)}
		rec := &PackageRecord{ReleasedAt: times[ti], Kind: KindDependentHidden, IsDepCore: true}
		ti++
		rec.RemovedAt = rec.ReleasedAt.Add(cfg.Takedown.draw(rng) + 5*24*time.Hour)
		s.release(c, rec, cb, coord, opts)
		c.DepCores = append(c.DepCores, spec.Name)
		coreCoords = append(coreCoords, coord)
	}

	emitFront := func(depNames []string) {
		payload := xrand.Pick(rng, codegen.AllPayloads())
		cb := s.codeBase(fmt.Sprintf("%s/front/%d", c.ID, ti), cfg.Eco, payload, rng.Derive(fmt.Sprint("front", ti)))
		coord := ecosys.Coord{Ecosystem: cfg.Eco, Name: s.nextName(cfg.Eco, rng.Bool(0.5)), Version: ecosys.Version(rng)}
		opts := codegen.Options{Description: description(rng)}
		// Hide the dependency in the manifest, the source, or both —
		// exercising both §III-C extraction channels.
		switch rng.Intn(3) {
		case 0:
			opts.Dependencies = depNames
		case 1:
			opts.ImportDeps = depNames
		default:
			opts.Dependencies = depNames
			opts.ImportDeps = depNames
		}
		rec := &PackageRecord{ReleasedAt: times[ti], Kind: KindDependentHidden}
		ti++
		rec.RemovedAt = rec.ReleasedAt.Add(cfg.Takedown.draw(rng))
		s.release(c, rec, cb, coord, opts)
	}

	for si, spec := range cfg.Specs {
		for f := 0; f < spec.Fronts; f++ {
			emitFront([]string{coreCoords[si].Name})
		}
	}
	// Chain bridges: two fronts per consecutive core pair keep a multi-core
	// campaign one connected subgraph (the paper's largest dependency
	// subgraph is "formed by multiple dependencies reused by different
	// malicious packages"); redundancy survives takedown-induced losses.
	for si := 1; si < len(coreCoords); si++ {
		for dup := 0; dup < 2; dup++ {
			emitFront([]string{coreCoords[si-1].Name, coreCoords[si].Name})
		}
	}
	for b := 0; b < cfg.Bridges && len(coreCoords) >= 2; b++ {
		i := rng.Intn(len(coreCoords))
		j := (i + 1 + rng.Intn(len(coreCoords)-1)) % len(coreCoords)
		emitFront([]string{coreCoords[i].Name, coreCoords[j].Name})
	}
	return c, nil
}

// FloodConfig parameterises a registry-flood campaign.
type FloodConfig struct {
	Eco      ecosys.Ecosystem
	Size     int
	Start    time.Time
	Window   time.Duration // all releases land inside this window
	Takedown TakedownModel
}

// FloodCampaign models the Feb-2023 PyPI registration flood: one code base,
// thousands of fresh names, takedown within hours. It queues the releases.
func (s *Simulator) FloodCampaign(cfg FloodConfig) (*Campaign, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("attacker: flood size %d", cfg.Size)
	}
	rng := s.rng.Derive("flood/" + cfg.Start.String() + fmt.Sprint(s.nextID))
	c := &Campaign{ID: s.campaignID(KindFlood, cfg.Eco), Kind: KindFlood, Eco: cfg.Eco, Payload: codegen.PayloadDropboxFetch}
	cb := s.codeBase(c.ID+"/cb", cfg.Eco, codegen.PayloadDropboxFetch, rng.Derive("cb"))
	times := spreadTimes(rng, cfg.Start, cfg.Window, cfg.Size)
	desc := description(rng)
	for i := 0; i < cfg.Size; i++ {
		coord := ecosys.Coord{Ecosystem: cfg.Eco, Name: s.forge(cfg.Eco).Fresh(), Version: "1.0.0"}
		rec := &PackageRecord{ReleasedAt: times[i], Kind: KindFlood}
		rec.RemovedAt = rec.ReleasedAt.Add(cfg.Takedown.draw(rng))
		s.release(c, rec, cb, coord, codegen.Options{Description: desc})
	}
	return c, nil
}

// Singleton queues one standalone malicious package with a unique code
// base.
func (s *Simulator) Singleton(eco ecosys.Ecosystem, at time.Time, takedown TakedownModel) (*Campaign, error) {
	rng := s.rng.Derive("singleton/" + at.String() + eco.String() + fmt.Sprint(s.nextID))
	c := &Campaign{ID: s.campaignID(KindSingleton, eco), Kind: KindSingleton, Eco: eco}
	payload := xrand.Pick(rng, codegen.AllPayloads())
	c.Payload = payload
	cb := s.codeBase(c.ID+"/cb", eco, payload, rng.Derive("cb"))
	coord := ecosys.Coord{Ecosystem: eco, Name: s.nextName(eco, rng.Bool(0.6)), Version: ecosys.Version(rng)}
	opts := codegen.Options{
		Description:  description(rng),
		Dependencies: initialDeps(eco, rng),
	}
	rec := &PackageRecord{ReleasedAt: at, Kind: KindSingleton}
	rec.RemovedAt = at.Add(takedown.draw(rng))
	s.release(c, rec, cb, coord, opts)
	return c, nil
}

func (s *Simulator) nextName(eco ecosys.Ecosystem, squat bool) string {
	if squat {
		return s.forge(eco).Squat(eco)
	}
	return s.forge(eco).Fresh()
}

// spreadTimes places n instants across [start, start+active] with the first
// at start and the last at start+active (so the campaign's measured active
// period equals the target), and the rest uniform in between, sorted.
func spreadTimes(rng *xrand.RNG, start time.Time, active time.Duration, n int) []time.Time {
	if n == 1 || active <= 0 {
		out := make([]time.Time, n)
		for i := range out {
			out[i] = start
		}
		return out
	}
	out := make([]time.Time, 0, n)
	out = append(out, start)
	inner := make([]time.Duration, 0, n-2)
	for i := 0; i < n-2; i++ {
		inner = append(inner, time.Duration(rng.Float64()*float64(active)))
	}
	slices.Sort(inner)
	for _, d := range inner {
		out = append(out, start.Add(d))
	}
	out = append(out, start.Add(active))
	return out
}

// legitDeps are real, benign dependency names a similar-code campaign may
// declare during a CDep operation. The list deliberately avoids any name a
// dependent-hidden core ever squats (urllib3, rest-client, ...), otherwise a
// CDep toggle would wire unrelated campaigns into the dependency subgraphs.
var legitDeps = map[ecosys.Ecosystem][]string{
	ecosys.PyPI:     {"numpy", "django", "flask", "pillow", "cryptography", "pytest"},
	ecosys.NPM:      {"lodash", "express", "react", "axios", "moment", "chalk"},
	ecosys.RubyGems: {"rails", "rake", "rack", "nokogiri", "puma", "sinatra"},
}

// initialDeps gives a campaign's manifests a plausible starting dependency
// list (0–2 legit packages); real malware routinely declares benign
// dependencies to look normal.
func initialDeps(eco ecosys.Ecosystem, rng *xrand.RNG) []string {
	legit := legitDeps[eco]
	if len(legit) == 0 {
		legit = legitDeps[ecosys.NPM]
	}
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{xrand.Pick(rng, legit)}
	default:
		a := rng.Intn(len(legit))
		b := (a + 1 + rng.Intn(len(legit)-1)) % len(legit)
		return []string{legit[a], legit[b]}
	}
}

func toggleDep(deps []string, eco ecosys.Ecosystem, rng *xrand.RNG) []string {
	legit := legitDeps[eco]
	if len(legit) == 0 {
		legit = legitDeps[ecosys.NPM]
	}
	if len(deps) > 0 && rng.Bool(0.5) {
		return deps[:len(deps)-1]
	}
	return append(append([]string(nil), deps...), xrand.Pick(rng, legit))
}

var descWords = []string{
	"a fast and lightweight helper library", "the best toolkit for modern apps",
	"simple utilities for everyday development", "high performance network client",
	"a drop-in replacement with extra features", "official community build",
	"tools for data processing pipelines", "convenience wrappers for the standard library",
}

func description(rng *xrand.RNG) string { return xrand.Pick(rng, descWords) }
