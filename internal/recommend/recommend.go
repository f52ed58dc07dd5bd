// Package recommend answers the paper's "DFT-ready SOC in minutes" pitch
// from the results catalog: given a testinfo-shaped description of a chip
// that has never run, find the most similar chips that have, and suggest
// the TAM width, wrapper partitioner, grouping, and BIST architecture
// that worked best for them — with the evidence attached.
//
// The method is deliberately simple and fully stated (a recommendation
// without a stated basis is a guess with extra steps):
//
//  1. Candidate records are the catalog's feasible schedule results
//     (flow/sched kinds with a cycle count and a TAM width).
//  2. Records are grouped into chips by their (scenario, seed)
//     provenance; each chip's feature vector is the Features —
//     core/chain/pattern/IO/memory counts — of its first record in the
//     catalog's presentation order.
//  3. Chip distance is normalized Euclidean: every feature dimension is
//     scaled by the maximum over the candidate population plus the query,
//     so kilobit memory counts do not drown out core counts.  This is the
//     distance named in every Evidence row.
//  4. The K nearest chips vote on TAM width, weighted by 1/(distance+ε);
//     each chip votes with its own best config — fewest test cycles,
//     ties to the narrower TAM.  Remaining knobs (partitioner, grouping,
//     algorithm, logic BIST) come from the nearest chip that voted for
//     the winning width.
//
// Everything is deterministic: ties break lexically, never by map order.
package recommend

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"steac/internal/catalog"
	"steac/internal/memory"
	"steac/internal/testinfo"
)

// ErrNoData is returned when the catalog holds no usable prior results
// for the query (empty catalog, or every record filtered out).
var ErrNoData = errors.New("recommend: no prior results in catalog")

// DefaultK is how many neighbor chips vote when the request does not say.
const DefaultK = 3

// Request describes the chip seeking a DFT plan.
type Request struct {
	// Cores/Memories describe the chip (catalog.CoreFeatures profiles
	// them).  Required.
	Cores    []*testinfo.Core `json:"cores,omitempty"`
	Memories []memory.Config  `json:"memories,omitempty"`
	// K is the neighbor count (0 = DefaultK).
	K int `json:"k,omitempty"`
	// MaxTamWidth drops prior results wider than the package can afford
	// (0 = no cap).
	MaxTamWidth int `json:"max_tam_width,omitempty"`
}

// Suggestion is the recommended DFT configuration plus its evidence.
type Suggestion struct {
	TamWidth    int     `json:"tam_width"`
	Partitioner string  `json:"partitioner,omitempty"`
	Algorithm   string  `json:"algorithm,omitempty"`
	Grouping    string  `json:"grouping,omitempty"`
	LogicBIST   bool    `json:"logic_bist,omitempty"`
	PowerBudget float64 `json:"power_budget,omitempty"`
	// ExpectedCycles is the test time the winning neighbor achieved with
	// this config — an analogy, not a simulation.
	ExpectedCycles int `json:"expected_cycles,omitempty"`
	// Distance names the metric every Evidence.Distance was computed
	// with, so the basis is auditable.
	Distance string `json:"distance"`
	// Basis lists the neighbor chips that voted, nearest first.
	Basis []Evidence `json:"basis"`
}

// Evidence is one neighbor chip's contribution: which record, how far,
// and what it voted for.
type Evidence struct {
	Fingerprint string  `json:"fingerprint"`
	Scenario    string  `json:"scenario,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	Distance    float64 `json:"distance"`
	TamWidth    int     `json:"tam_width"`
	TestCycles  int     `json:"test_cycles"`
}

// DistanceMetric is the value of Suggestion.Distance.
const DistanceMetric = "normalized-euclidean/v1"

// chip is one prior chip: its feature vector and its best record.
type chip struct {
	id chipID
	// key is id's sort key for distance ties: "scenario\x00seed", or
	// "\x00fingerprint" for an explicit submission.
	key string
	// first is the chip's first usable record in presentation order; the
	// chip's features are its features, whatever order records come in.
	first *catalog.Record
	best  *catalog.Record
	feat  [8]float64
	dist  float64
}

// chipID groups records into chips: by (scenario, seed) provenance, or by
// fingerprint for explicit submissions, which have no generator
// provenance, so each record is its own chip.
type chipID struct {
	scenario    string
	seed        int64
	fingerprint string
}

func idOf(rec *catalog.Record) chipID {
	if rec.Scenario == "" {
		return chipID{fingerprint: rec.Fingerprint}
	}
	return chipID{scenario: rec.Scenario, seed: rec.Seed}
}

func (id chipID) key() string {
	if id.scenario == "" {
		return "\x00" + id.fingerprint
	}
	return id.scenario + "\x00" + strconv.FormatInt(id.seed, 10)
}

func featureVector(f catalog.Features) [8]float64 {
	return [8]float64{
		float64(f.Cores), float64(f.ScanChains), float64(f.ScanBits),
		float64(f.ScanPatterns), float64(f.FuncPatterns), float64(f.IOs),
		float64(f.Memories), float64(f.MemoryBits),
	}
}

// betterRecord reports whether a is a strictly better config result than
// b: fewer test cycles, ties to the narrower TAM, then lexical
// fingerprint so the choice never depends on iteration order.
func betterRecord(a, b *catalog.Record) bool {
	if a.Metrics.TestCycles != b.Metrics.TestCycles {
		return a.Metrics.TestCycles < b.Metrics.TestCycles
	}
	if a.Config.TamWidth != b.Config.TamWidth {
		return a.Config.TamWidth < b.Config.TamWidth
	}
	return a.Fingerprint < b.Fingerprint
}

// usable reports whether a record can anchor a recommendation.
func usable(rec *catalog.Record, maxTam int) bool {
	if rec.Kind != catalog.KindFlow && rec.Kind != catalog.KindSched {
		return false
	}
	if rec.Metrics.Infeasible || rec.Metrics.TestCycles <= 0 || rec.Config.TamWidth <= 0 {
		return false
	}
	if maxTam > 0 && rec.Config.TamWidth > maxTam {
		return false
	}
	return true
}

// Ranker is one recommendation computed in a single pass: Add each
// candidate record once, in any order, then Suggest.  It keeps pointers to
// the records it is given, which must stay unchanged until Suggest returns
// — the catalog store's Visit guarantees that for its records.
type Ranker struct {
	req   Request
	query [8]float64
	seen  int
	chips map[chipID]*chip
	order []*chip // chips in first-seen order
	last  *chip   // the chip of the previous usable record
}

// NewRanker validates the request and profiles the queried chip.
func NewRanker(req Request) (*Ranker, error) {
	if len(req.Cores) == 0 {
		return nil, errors.New("recommend: request needs at least one core description")
	}
	return &Ranker{
		req:   req,
		query: featureVector(catalog.CoreFeatures(req.Cores, req.Memories)),
		chips: map[chipID]*chip{},
	}, nil
}

// Add offers one record.  Unusable records are only counted.
func (r *Ranker) Add(rec *catalog.Record) {
	r.seen++
	if !usable(rec, r.req.MaxTamWidth) {
		return
	}
	id := idOf(rec)
	c := r.last
	if c == nil || c.id != id {
		// Records in presentation order arrive chip by chip, so the map
		// is consulted once per chip on the store's path.
		if c = r.chips[id]; c == nil {
			c = &chip{id: id, first: rec, best: rec, feat: featureVector(rec.Features)}
			r.chips[id] = c
			r.order = append(r.order, c)
			r.last = c
			return
		}
		r.last = c
	}
	if betterRecord(rec, c.best) {
		c.best = rec
	}
	if catalog.ComparePresentation(rec, c.first) < 0 {
		c.first = rec
		c.feat = featureVector(rec.Features)
	}
}

// Recommend ranks records against the request and synthesizes the
// suggestion.  records is typically Store.List(Query{Tenant: ...}) — the
// caller owns tenant scoping.
func Recommend(records []catalog.Record, req Request) (*Suggestion, error) {
	r, err := NewRanker(req)
	if err != nil {
		return nil, err
	}
	for i := range records {
		r.Add(&records[i])
	}
	return r.Suggest()
}

// Suggest synthesizes the suggestion from the records added so far.
func (r *Ranker) Suggest() (*Suggestion, error) {
	if len(r.order) == 0 {
		return nil, fmt.Errorf("%w: %d records, none a feasible schedule result", ErrNoData, r.seen)
	}
	queryFeat := r.query

	// Per-dimension normalization over the population plus the query.
	var scale [8]float64
	for d := 0; d < 8; d++ {
		scale[d] = queryFeat[d]
	}
	for _, c := range r.order {
		for d := 0; d < 8; d++ {
			scale[d] = math.Max(scale[d], c.feat[d])
		}
	}

	pop := make([]*chip, 0, len(r.order))
	for _, c := range r.order {
		sum := 0.0
		for d := 0; d < 8; d++ {
			if scale[d] == 0 {
				continue
			}
			diff := (c.feat[d] - queryFeat[d]) / scale[d]
			sum += diff * diff
		}
		c.dist = math.Sqrt(sum)
		c.key = c.id.key()
		pop = append(pop, c)
	}
	sort.Slice(pop, func(i, j int) bool {
		if pop[i].dist != pop[j].dist {
			return pop[i].dist < pop[j].dist
		}
		return pop[i].key < pop[j].key
	})

	k := r.req.K
	if k <= 0 {
		k = DefaultK
	}
	if k > len(pop) {
		k = len(pop)
	}
	neighbors := pop[:k]

	// Distance-weighted vote on TAM width; ties to the narrower width.
	votes := map[int]float64{}
	for _, c := range neighbors {
		votes[c.best.Config.TamWidth] += 1 / (c.dist + 1e-6)
	}
	widths := make([]int, 0, len(votes))
	for w := range votes {
		widths = append(widths, w)
	}
	sort.Ints(widths)
	bestWidth, bestVote := 0, -1.0
	for _, w := range widths {
		if votes[w] > bestVote {
			bestWidth, bestVote = w, votes[w]
		}
	}

	sug := &Suggestion{TamWidth: bestWidth, Distance: DistanceMetric}
	for _, c := range neighbors {
		sug.Basis = append(sug.Basis, Evidence{
			Fingerprint: c.best.Fingerprint,
			Scenario:    c.best.Scenario,
			Seed:        c.best.Seed,
			Distance:    c.dist,
			TamWidth:    c.best.Config.TamWidth,
			TestCycles:  c.best.Metrics.TestCycles,
		})
		// Remaining knobs from the nearest chip that voted for the
		// winning width (neighbors are sorted nearest first).
		if sug.ExpectedCycles == 0 && c.best.Config.TamWidth == bestWidth {
			sug.Partitioner = c.best.Config.Partitioner
			sug.Algorithm = c.best.Config.Algorithm
			sug.Grouping = c.best.Config.Grouping
			sug.LogicBIST = c.best.Config.LogicBIST
			sug.PowerBudget = c.best.Config.PowerBudget
			sug.ExpectedCycles = c.best.Metrics.TestCycles
		}
	}
	return sug, nil
}
