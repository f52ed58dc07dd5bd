package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// referenceList is the store's listing as it was before the index: a
// linear scan of every record with Query.match, SortRecords, then the
// limit.  Records that compare equal in presentation order (the same
// fingerprint and sort fields under two tenants) are ordered by tenant,
// the order the index merge gives them.
func referenceList(all map[storeKey]Record, q Query) ([]Record, int) {
	out := []Record{}
	for _, rec := range all {
		if q.match(&rec) {
			out = append(out, rec)
		}
	}
	SortRecords(out)
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && ComparePresentation(&out[i], &out[j]) == 0 {
			j++
		}
		run := out[i:j]
		sort.Slice(run, func(a, b int) bool { return run[a].Tenant < run[b].Tenant })
		i = j
	}
	total := len(out)
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out, total
}

// TestIndexMatchesLinearScan drives the indexed store and a plain map
// through random Puts across three tenants (re-Puts of existing keys with
// changed sort fields included), compactions, clean reopens and torn-tail
// reopens, and requires List, Page's total and Get to equal the linear
// reference exactly after every step.
func TestIndexMatchesLinearScan(t *testing.T) {
	tenants := []string{"acme", "anon", "bolt"}
	scenarios := []string{"", "dsc", "manycore", "memory-heavy"}
	kinds := []string{KindFlow, KindMemfault, KindSched, KindXCheck}
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			path := filepath.Join(dir, storeFile)
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { st.Close() }()

			ref := map[storeKey]Record{}
			// lines models the log: each acknowledged version in write
			// order, or one line per live record after a compaction.
			var lines []Record
			keys := func() []storeKey {
				out := make([]storeKey, 0, len(ref))
				for k := range ref {
					out = append(out, k)
				}
				sort.Slice(out, func(i, j int) bool {
					if out[i].tenant != out[j].tenant {
						return out[i].tenant < out[j].tenant
					}
					return out[i].fingerprint < out[j].fingerprint
				})
				return out
			}
			compacted := func() {
				lines = lines[:0]
				for _, k := range keys() {
					lines = append(lines, ref[k])
				}
			}

			check := func(step int) {
				t.Helper()
				if st.Len() != len(ref) {
					t.Fatalf("step %d: Len %d, want %d", step, st.Len(), len(ref))
				}
				for _, k := range keys() {
					got, ok := st.Get(k.tenant, k.fingerprint)
					if !ok || !reflect.DeepEqual(got, ref[k]) {
						t.Fatalf("step %d: Get(%q, %q) = %+v, %v; want %+v", step, k.tenant, k.fingerprint, got, ok, ref[k])
					}
				}
				if _, ok := st.Get("nobody", "fp00"); ok {
					t.Fatalf("step %d: Get of an absent tenant found a record", step)
				}
				for i := 0; i < 12; i++ {
					q := Query{
						Tenant:   append([]string{"", "nobody"}, tenants...)[rng.Intn(len(tenants)+2)],
						Scenario: append([]string{"", "absent"}, scenarios...)[rng.Intn(len(scenarios)+2)],
						Kind:     append([]string{""}, kinds...)[rng.Intn(len(kinds)+1)],
						Limit:    []int{0, 0, 1, 3, 10}[rng.Intn(5)],
					}
					if rng.Intn(3) == 0 {
						q.MinCoverage = float64(rng.Intn(100))
					}
					if rng.Intn(3) == 0 {
						q.MaxCoverage = float64(rng.Intn(100))
					}
					want, wantTotal := referenceList(ref, q)
					got, total := st.Page(q)
					if total != wantTotal || !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: Page(%+v) = %d records of %d, want %d of %d\n got %+v\nwant %+v",
							step, q, len(got), total, len(want), wantTotal, got, want)
					}
					if list := st.List(q); !reflect.DeepEqual(list, want) {
						t.Fatalf("step %d: List(%+v) differs from Page", step, q)
					}
				}
			}

			for step := 0; step < 80; step++ {
				switch k := rng.Intn(12); {
				case k < 8: // put: a new key, or a re-Put with new sort fields
					rec := Record{
						Fingerprint: fmt.Sprintf("fp%02d", rng.Intn(16)),
						Tenant:      tenants[rng.Intn(len(tenants))],
						Kind:        kinds[rng.Intn(len(kinds))],
						Scenario:    scenarios[rng.Intn(len(scenarios))],
						Seed:        int64(rng.Intn(3)),
						Config:      Config{TamWidth: 8 * (1 + rng.Intn(3))},
						Metrics: Metrics{TestCycles: 1 + rng.Intn(1000),
							Coverage: float64(rng.Intn(10000)) / 100},
						CreatedUnixMS: int64(step),
					}
					if err := st.Put(rec); err != nil {
						t.Fatal(err)
					}
					rec.Schema = SchemaVersion
					ref[storeKey{rec.Tenant, rec.Fingerprint}] = rec
					lines = append(lines, rec)

				case k < 9:
					if err := st.Compact(); err != nil {
						t.Fatal(err)
					}
					compacted()

				case k < 10: // clean reopen
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if st, err = Open(dir); err != nil {
						t.Fatal(err)
					}

				default: // tear the final line, then reopen
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					raw, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if len(raw) > 0 {
						last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
						var env struct {
							Rec Record `json:"rec"`
						}
						if err := json.Unmarshal(raw[last:], &env); err != nil {
							t.Fatal(err)
						}
						key := storeKey{env.Rec.Tenant, env.Rec.Fingerprint}
						if !reflect.DeepEqual(env.Rec, ref[key]) {
							t.Fatalf("step %d: the log's last line is not its key's live version", step)
						}
						cut := len(raw) - (1 + rng.Intn(len(raw)-last-1))
						if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
							t.Fatal(err)
						}
						// The torn line's key falls back to its previous
						// version in the log, if it had one.  (The model's
						// order after a compaction is not the file's, but
						// a compacted log holds one line per key.)
						delete(ref, key)
						torn := true
						for i := len(lines) - 1; i >= 0; i-- {
							if (storeKey{lines[i].Tenant, lines[i].Fingerprint}) != key {
								continue
							}
							if torn {
								lines = append(lines[:i], lines[i+1:]...)
								torn = false
								continue
							}
							ref[key] = lines[i]
							break
						}
					}
					if st, err = Open(dir); err != nil {
						t.Fatal(err)
					}
					if len(raw) > 0 {
						if st.Dropped() != 1 {
							t.Fatalf("step %d: Dropped %d after a torn tail", step, st.Dropped())
						}
						compacted()
					}
				}
				check(step)
			}
		})
	}
}

// TestIndexConcurrentReaders runs listings, Gets and visits against Puts
// that keep re-sorting the index; under -race it checks the locking, and
// every reader checks that what it saw is in presentation order.
func TestIndexConcurrentReaders(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const puts = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < puts; i++ {
			rec := testRecord(fmt.Sprintf("fp%02d", i%40), []string{"a", "b"}[i%2],
				[]string{"dsc", "manycore"}[i%3%2], 8+i%5, 100+i)
			if err := st.Put(rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sorted := func(recs []Record) bool {
		for i := 1; i < len(recs); i++ {
			if ComparePresentation(&recs[i-1], &recs[i]) > 0 {
				return false
			}
		}
		return true
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := Query{Tenant: []string{"", "a", "b"}[r], Scenario: []string{"", "dsc"}[i%2], Limit: i % 4}
				recs, total := st.Page(q)
				if total < len(recs) || !sorted(recs) {
					t.Errorf("Page(%+v): %d of %d records, sorted %v", q, len(recs), total, sorted(recs))
					return
				}
				var seen []Record
				st.Visit(q, func(rec *Record) { seen = append(seen, *rec) })
				if !sorted(seen) {
					t.Errorf("Visit(%+v) out of order", q)
					return
				}
				st.Get("a", fmt.Sprintf("fp%02d", i%40))
				st.Len()
			}
		}(r)
	}
	wg.Wait()
	if st.Len() != 40 {
		t.Fatalf("Len %d after the Puts, want 40", st.Len())
	}
}
