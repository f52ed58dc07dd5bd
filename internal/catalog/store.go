package catalog

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"steac/internal/wal"
)

// The store is a wal log (internal/wal) replayed under the FailInterior
// policy: every Put appends one CRC-framed line and fsyncs before
// returning; on open a damaged final line — the torn tail of a crash
// mid-append, never acknowledged — is dropped, counted (Dropped) and
// compacted away, while damage anywhere before it is refused with a typed
// ErrCatalogCorrupt.  Unlike a campaign journal the catalog cannot
// recompute what it lost, so a silent hole in the population the
// recommender ranks over is never an option.

// ErrCatalogCorrupt reports interior damage: a record before the final
// line fails its CRC or does not parse.  The file needs operator
// attention (restore, or truncate past the damage); the store refuses to
// open rather than serve a silently incomplete catalog.
var ErrCatalogCorrupt = errors.New("catalog: store corrupt")

// ErrCatalogSchema reports a well-formed record written by a schema this
// binary does not speak.
var ErrCatalogSchema = errors.New("catalog: unsupported schema version")

const storeFile = "catalog.jsonl"

// Store is the durable record set: an append-only fsync'd log plus an
// in-memory index.  recs maps (tenant, fingerprint) to the live record,
// last write wins; tenants holds the same records, one slice per tenant in
// presentation order (ComparePresentation), so a listing walks one range
// of one slice instead of copying and sorting the whole store.  Indexed
// records are never mutated in place — a re-Put swaps the pointer — so a
// reader may keep one after the lock is released.
type Store struct {
	mu      sync.RWMutex
	log     *wal.Log
	recs    map[storeKey]*Record
	tenants map[string][]*Record
	dropped int
}

type storeKey struct{ tenant, fingerprint string }

// Open loads (or creates) the catalog under dir, replaying and compacting
// the store file.  Torn tails are dropped and counted; interior damage is
// ErrCatalogCorrupt; foreign schemas are ErrCatalogSchema.  Each tenant's
// index is sorted once, after the replay.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: open: %w", err)
	}
	path := filepath.Join(dir, storeFile)
	s := &Store{recs: map[storeKey]*Record{}, tenants: map[string][]*Record{}}
	dropped, err := wal.Replay(path, wal.FailInterior, func(blob []byte) error {
		rec, err := decodeRecord(blob)
		if err != nil {
			return err
		}
		s.recs[storeKey{rec.Tenant, rec.Fingerprint}] = &rec
		return nil
	})
	if errors.Is(err, wal.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %w", ErrCatalogCorrupt, err)
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: open: %w", err)
	}
	for _, rec := range s.recs {
		s.tenants[rec.Tenant] = append(s.tenants[rec.Tenant], rec)
	}
	for _, idx := range s.tenants {
		slices.SortFunc(idx, ComparePresentation)
	}
	s.dropped = dropped
	if s.log, err = wal.Open(path); err != nil {
		return nil, fmt.Errorf("catalog: open: %w", err)
	}
	if dropped > 0 {
		if err := s.compactLocked(); err != nil {
			s.log.Close()
			return nil, err
		}
	}
	return s, nil
}

// decodeRecord validates one stored record: JSON, schema, key fields.
func decodeRecord(blob []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		return Record{}, fmt.Errorf("%w: bad record: %v", wal.ErrDamaged, err)
	}
	if rec.Schema != SchemaVersion {
		return Record{}, fmt.Errorf("%w: record declares %q, this binary speaks %q",
			ErrCatalogSchema, rec.Schema, SchemaVersion)
	}
	if rec.Fingerprint == "" {
		return Record{}, fmt.Errorf("%w: record without fingerprint", wal.ErrDamaged)
	}
	return rec, nil
}

// Put ingests one record: stamp the schema, append one CRC-framed line,
// fsync, index.  The write is acknowledged only after the fsync — the
// same contract as the job database.
func (s *Store) Put(rec Record) error {
	if s == nil {
		return nil
	}
	if rec.Fingerprint == "" {
		return errors.New("catalog: record without fingerprint")
	}
	rec.Schema = SchemaVersion
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Append(rec); err != nil {
		return fmt.Errorf("catalog: put: %w", err)
	}
	key := storeKey{rec.Tenant, rec.Fingerprint}
	idx := s.tenants[rec.Tenant]
	if old := s.recs[key]; old != nil {
		// The overwritten record's sort fields may differ from the new
		// one's: take it out at its own position first.
		i, _ := slices.BinarySearchFunc(idx, old, ComparePresentation)
		idx = slices.Delete(idx, i, i+1)
	}
	i, _ := slices.BinarySearchFunc(idx, &rec, ComparePresentation)
	s.tenants[rec.Tenant] = slices.Insert(idx, i, &rec)
	s.recs[key] = &rec
	return nil
}

// Get returns one record by its (tenant, fingerprint) key.
func (s *Store) Get(tenant, fingerprint string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if rec := s.recs[storeKey{tenant, fingerprint}]; rec != nil {
		return *rec, true
	}
	return Record{}, false
}

// Query filters List.  Zero values mean "no filter" (MaxCoverage 0 sets
// no ceiling; use MinCoverage for floors).
type Query struct {
	// Tenant restricts to one tenant's records ("" = all — local CLI use;
	// the daemon always sets it).
	Tenant string
	// Scenario/Kind match the record fields exactly.
	Scenario string
	Kind     string
	// MinCoverage/MaxCoverage bound Metrics.Coverage in percent.
	MinCoverage float64
	MaxCoverage float64
	// Limit caps how many of the matches, in presentation order, are
	// returned (0 = all).
	Limit int
}

func (q Query) match(rec *Record) bool {
	if q.Tenant != "" && rec.Tenant != q.Tenant {
		return false
	}
	if q.Scenario != "" && rec.Scenario != q.Scenario {
		return false
	}
	if q.Kind != "" && rec.Kind != q.Kind {
		return false
	}
	if q.MinCoverage > 0 && rec.Metrics.Coverage < q.MinCoverage {
		return false
	}
	if q.MaxCoverage > 0 && rec.Metrics.Coverage > q.MaxCoverage {
		return false
	}
	return true
}

// List returns matching records in presentation order: scenario, seed,
// kind, TAM width, fingerprint — a total order independent of insertion
// and wall clock, so listings are byte-stable across restarts.
func (s *Store) List(q Query) []Record {
	recs, _ := s.Page(q)
	return recs
}

// Page is List plus the number of records that match q before its Limit
// is applied.  The walk copies only the records it returns.
func (s *Store) Page(q Query) ([]Record, int) {
	if s == nil {
		return nil, 0
	}
	total := 0
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Record, 0, min(max(q.Limit, 0), len(s.recs)))
	s.walk(q, func(rec *Record) bool {
		if q.Limit <= 0 || total < q.Limit {
			out = append(out, *rec)
		}
		total++
		return true
	})
	return out, total
}

// Visit calls fn with each record matching q, in presentation order, up
// to q.Limit of them, without copying any.  fn runs under the store's read
// lock, so it must be quick, must not modify the record and must not call
// back into the store; it may keep the pointer, since the store never
// mutates an indexed record.  (Gathering the pointers first and calling
// fn after the unlock allocates a slice per call: on catalog-serve that
// measured about 11% slower at p50 and 12% at the tail.)
func (s *Store) Visit(q Query, fn func(*Record)) {
	if s == nil {
		return
	}
	n := 0
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.walk(q, func(rec *Record) bool {
		fn(rec)
		n++
		return q.Limit <= 0 || n < q.Limit
	})
}

// walk calls fn with each record matching q in presentation order until
// fn returns false.  A named tenant walks its own index, a named scenario
// only its range of it; tenant "" merges every tenant's index, equal
// records ordered by tenant.  The caller holds s.mu.
func (s *Store) walk(q Query, fn func(*Record) bool) {
	var runs [][]*Record
	if q.Tenant != "" {
		runs = [][]*Record{s.tenants[q.Tenant]}
	} else {
		names := make([]string, 0, len(s.tenants))
		for name := range s.tenants {
			names = append(names, name)
		}
		slices.Sort(names)
		runs = make([][]*Record, len(names))
		for i, name := range names {
			runs[i] = s.tenants[name]
		}
	}
	if q.Scenario != "" {
		for i, idx := range runs {
			runs[i] = scenarioRange(idx, q.Scenario)
		}
	}
	for {
		// Pick the least head; a tie goes to the earlier run.
		best := -1
		for i, idx := range runs {
			if len(idx) > 0 && (best < 0 || ComparePresentation(idx[0], runs[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		rec := runs[best][0]
		runs[best] = runs[best][1:]
		if q.match(rec) && !fn(rec) {
			return
		}
	}
}

// scenarioRange is the run of idx (in presentation order) whose records
// belong to scenario.
func scenarioRange(idx []*Record, scenario string) []*Record {
	lo := sort.Search(len(idx), func(i int) bool { return idx[i].Scenario >= scenario })
	hi := lo + sort.Search(len(idx)-lo, func(i int) bool { return idx[lo+i].Scenario > scenario })
	return idx[lo:hi]
}

// ComparePresentation orders records in the catalog's presentation order
// (scenario, seed, kind, TAM width, fingerprint), returning -1, 0 or +1.
// Within one tenant it is total, since fingerprints are unique there.
func ComparePresentation(a, b *Record) int {
	if c := strings.Compare(a.Scenario, b.Scenario); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Seed, b.Seed); c != 0 {
		return c
	}
	if c := strings.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Config.TamWidth, b.Config.TamWidth); c != 0 {
		return c
	}
	return strings.Compare(a.Fingerprint, b.Fingerprint)
}

// SortRecords orders records in the catalog's canonical presentation
// order (scenario, seed, kind, TAM width, fingerprint).
func SortRecords(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int { return ComparePresentation(&a, &b) })
}

// Len returns the record count.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Dropped reports how many torn-tail lines were repaired away on open —
// zero on every clean shutdown, and the audit trail when it is not.
func (s *Store) Dropped() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dropped
}

// Compact rewrites the store to one line per record in canonical order
// via tmp + fsync + atomic rename, then reopens the append handle.
func (s *Store) Compact() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	vals := make([]any, 0, len(s.recs))
	s.walk(Query{}, func(rec *Record) bool {
		vals = append(vals, rec)
		return true
	})
	if err := s.log.Rewrite(vals); err != nil {
		return fmt.Errorf("catalog: compact: %w", err)
	}
	return nil
}

// Close releases the append handle.  The index stays readable; further
// Puts fail.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.log.Close()
}
