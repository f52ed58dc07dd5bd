package recommend

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"steac/internal/catalog"
)

// legacyRecommend is the ranking as it was before the one-pass Ranker:
// string chip keys from fmt.Sprintf, a chip's features taken from the
// first of its records in input order.  Given records in presentation
// order — what it was always given — it is the reference Recommend must
// still equal.
func legacyRecommend(records []catalog.Record, req Request) (*Suggestion, error) {
	queryFeat := featureVector(catalog.CoreFeatures(req.Cores, req.Memories))
	type legacyChip struct {
		key  string
		best catalog.Record
		feat [8]float64
		dist float64
	}
	chips := map[string]*legacyChip{}
	for _, rec := range records {
		rec := rec
		if !usable(&rec, req.MaxTamWidth) {
			continue
		}
		key := fmt.Sprintf("%s\x00%d", rec.Scenario, rec.Seed)
		if rec.Scenario == "" {
			key = "\x00" + rec.Fingerprint
		}
		c, ok := chips[key]
		if !ok {
			chips[key] = &legacyChip{key: key, best: rec, feat: featureVector(rec.Features)}
			continue
		}
		if betterRecord(&rec, &c.best) {
			c.best = rec
		}
	}
	if len(chips) == 0 {
		return nil, fmt.Errorf("%w: %d records, none a feasible schedule result", ErrNoData, len(records))
	}
	var scale [8]float64
	copy(scale[:], queryFeat[:])
	for _, c := range chips {
		for d := range scale {
			scale[d] = math.Max(scale[d], c.feat[d])
		}
	}
	var pop []*legacyChip
	for _, c := range chips {
		sum := 0.0
		for d := range scale {
			if scale[d] != 0 {
				diff := (c.feat[d] - queryFeat[d]) / scale[d]
				sum += diff * diff
			}
		}
		c.dist = math.Sqrt(sum)
		pop = append(pop, c)
	}
	sort.Slice(pop, func(i, j int) bool {
		if pop[i].dist != pop[j].dist {
			return pop[i].dist < pop[j].dist
		}
		return pop[i].key < pop[j].key
	})
	k := req.K
	if k <= 0 {
		k = DefaultK
	}
	neighbors := pop[:min(k, len(pop))]
	votes := map[int]float64{}
	for _, c := range neighbors {
		votes[c.best.Config.TamWidth] += 1 / (c.dist + 1e-6)
	}
	var widths []int
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
		sug.Basis = append(sug.Basis, Evidence{Fingerprint: c.best.Fingerprint, Scenario: c.best.Scenario,
			Seed: c.best.Seed, Distance: c.dist, TamWidth: c.best.Config.TamWidth, TestCycles: c.best.Metrics.TestCycles})
		if sug.ExpectedCycles == 0 && c.best.Config.TamWidth == bestWidth {
			sug.Partitioner, sug.Algorithm = c.best.Config.Partitioner, c.best.Config.Algorithm
			sug.Grouping, sug.LogicBIST = c.best.Config.Grouping, c.best.Config.LogicBIST
			sug.PowerBudget, sug.ExpectedCycles = c.best.Config.PowerBudget, c.best.Metrics.TestCycles
		}
	}
	return sug, nil
}

// rankerPopulation is a catalog that exercises every rule the ranking
// has: several records per chip (one chip's records disagreeing on
// features), explicit submissions, chips at equal distance whose seeds
// order differently as strings and as numbers, and unusable records.
func rankerPopulation(rng *rand.Rand) []catalog.Record {
	var recs []catalog.Record
	add := func(rec catalog.Record) {
		rec.Tenant = "acme"
		rec.Fingerprint = fmt.Sprintf("fp%03d", len(recs))
		recs = append(recs, rec)
	}
	for _, seed := range []int64{1, 2, 10, 11} {
		for _, tam := range []int{16, 24, 32, 40} {
			add(synthRecord("small", seed, 2, tam, 1000+rng.Intn(4)*100))
			add(synthRecord("big", seed, 8, tam, 9000+rng.Intn(4)*1000))
		}
	}
	// One chip whose records disagree on features: the first in
	// presentation order decides.
	for i, size := range []int{5, 3, 4} {
		rec := synthRecord("mixed", 7, size, 16+8*i, 3000-100*i)
		rec.Kind = []string{catalog.KindSched, catalog.KindFlow, catalog.KindSched}[i]
		add(rec)
	}
	for i := 0; i < 3; i++ {
		rec := synthRecord("", 0, 3+i, 24, 2000+i)
		add(rec)
	}
	mf := synthRecord("small", 1, 2, 8, 10)
	mf.Kind = catalog.KindMemfault
	add(mf)
	inf := synthRecord("small", 2, 2, 8, 10)
	inf.Metrics.Infeasible = true
	add(inf)
	add(synthRecord("big", 1, 8, 64, 1))
	return recs
}

// TestRankerOrderIndependent ranks one population through the daemon's
// path (catalog store, Visit, Ranker) and through Recommend over shuffled
// copies, and requires the same Suggestion from all — and from the
// ranking as it was before the Ranker, given presentation order.
func TestRankerOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := rankerPopulation(rng)
	st, err := catalog.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range recs {
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, req := range []Request{
		{Cores: synthCores(2)},
		{Cores: synthCores(8), K: 5},
		{Cores: synthCores(4), K: 2},
		{Cores: synthCores(3), K: 50, MaxTamWidth: 32},
		{Cores: synthCores(6), MaxTamWidth: 8},
	} {
		rk, err := NewRanker(req)
		if err != nil {
			t.Fatal(err)
		}
		st.Visit(catalog.Query{Tenant: "acme"}, rk.Add)
		want, wantErr := rk.Suggest()

		listed := st.List(catalog.Query{Tenant: "acme"})
		legacy, legacyErr := legacyRecommend(listed, req)
		if !reflect.DeepEqual(want, legacy) || fmt.Sprint(wantErr) != fmt.Sprint(legacyErr) {
			t.Fatalf("K=%d max=%d: store pass %+v, %v; pre-Ranker ranking %+v, %v",
				req.K, req.MaxTamWidth, want, wantErr, legacy, legacyErr)
		}
		for trial := 0; trial < 6; trial++ {
			shuffled := append([]catalog.Record(nil), recs...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			got, err := Recommend(shuffled, req)
			if !reflect.DeepEqual(got, want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("K=%d max=%d trial %d: Recommend %+v, %v; store pass %+v, %v",
					req.K, req.MaxTamWidth, trial, got, err, want, wantErr)
			}
		}
	}
}

// TestRankerNoDataMessage pins ErrNoData's text, record count included,
// on both paths.
func TestRankerNoDataMessage(t *testing.T) {
	mf := synthRecord("small", 1, 2, 16, 1000)
	mf.Kind = catalog.KindMemfault
	recs := []catalog.Record{mf, synthRecord("small", 2, 2, 64, 1000)}
	req := Request{Cores: synthCores(2), MaxTamWidth: 32}
	const want = "recommend: no prior results in catalog: 2 records, none a feasible schedule result"
	_, err := Recommend(recs, req)
	if !errors.Is(err, ErrNoData) || err.Error() != want {
		t.Fatalf("Recommend: %v, want %q", err, want)
	}
	rk, err := NewRanker(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		rk.Add(&recs[i])
	}
	if _, err := rk.Suggest(); !errors.Is(err, ErrNoData) || err.Error() != want {
		t.Fatalf("Ranker: %v, want %q", err, want)
	}
	if _, err := NewRanker(Request{}); err == nil {
		t.Fatal("NewRanker accepted a request without cores")
	}
}
