package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
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
// in-memory index keyed by (tenant, fingerprint), last write wins.
type Store struct {
	mu      sync.Mutex
	log     *wal.Log
	recs    map[string]Record
	dropped int
}

func storeKey(tenant, fingerprint string) string { return tenant + "\x00" + fingerprint }

// Open loads (or creates) the catalog under dir, replaying and compacting
// the store file.  Torn tails are dropped and counted; interior damage is
// ErrCatalogCorrupt; foreign schemas are ErrCatalogSchema.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: open: %w", err)
	}
	path := filepath.Join(dir, storeFile)
	s := &Store{recs: map[string]Record{}}
	dropped, err := wal.Replay(path, wal.FailInterior, func(blob []byte) error {
		rec, err := decodeRecord(blob)
		if err != nil {
			return err
		}
		s.recs[storeKey(rec.Tenant, rec.Fingerprint)] = rec
		return nil
	})
	if errors.Is(err, wal.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %w", ErrCatalogCorrupt, err)
	}
	if err != nil {
		return nil, fmt.Errorf("catalog: open: %w", err)
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
// fsync, remember.  The write is acknowledged only after the fsync — the
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
	s.recs[storeKey(rec.Tenant, rec.Fingerprint)] = rec
	return nil
}

// Get returns one record by its (tenant, fingerprint) key.
func (s *Store) Get(tenant, fingerprint string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[storeKey(tenant, fingerprint)]
	return rec, ok
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
	// Limit caps the result count after sorting (0 = all).
	Limit int
}

func (q Query) match(rec Record) bool {
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
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		if q.match(rec) {
			out = append(out, rec)
		}
	}
	s.mu.Unlock()
	SortRecords(out)
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// SortRecords orders records in the catalog's canonical presentation
// order (scenario, seed, kind, TAM width, fingerprint).
func SortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Config.TamWidth != b.Config.TamWidth {
			return a.Config.TamWidth < b.Config.TamWidth
		}
		return a.Fingerprint < b.Fingerprint
	})
}

// Len returns the record count.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Dropped reports how many torn-tail lines were repaired away on open —
// zero on every clean shutdown, and the audit trail when it is not.
func (s *Store) Dropped() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
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
	recs := make([]Record, 0, len(s.recs))
	for _, rec := range s.recs {
		recs = append(recs, rec)
	}
	SortRecords(recs)
	vals := make([]any, len(recs))
	for i := range recs {
		vals[i] = recs[i]
	}
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
