package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"steac/internal/obs"
	"steac/internal/wal"
)

// obsJobDBWriteFailures counts job-state writes the job database refused.
var obsJobDBWriteFailures = obs.GetCounter("serve.jobdb_write_failures")

// jobDB is the durable job database: one wal log under the checkpoint
// root (JobDir/jobs.jsonl) holding the latest state of every job the
// daemon ever accepted, keyed by the content-addressed job id.  It
// replaces the old "scan the checkpoint directory and hope" recovery
// path: a daemon restart knows every job's kind, spec, tenant owner, and
// terminal result without touching per-job checkpoint internals, so jobs
// reattach to their tenants and finished results survive the process.
//
// Write model: every state transition appends one full record and fsyncs
// before the transition is acknowledged.  Load replays the log under the
// wal FailInterior policy (last record per id wins, a torn tail is
// dropped, interior damage refuses the open) and compacts it back to one
// line per job, so the file stays proportional to the number of jobs
// rather than the number of transitions.
type jobDB struct {
	mu   sync.Mutex
	log  *wal.Log
	recs map[string]jobRecord
}

// jobRecord is one durable job row.  Spec is the verbatim submission
// payload, kept so a restarted operator (or a future auto-resume) can
// re-run the job without the client re-POSTing it.
type jobRecord struct {
	ID          string          `json:"id"`
	Tenant      string          `json:"tenant"`
	Kind        string          `json:"kind"`
	Fingerprint string          `json:"fingerprint"`
	Spec        json.RawMessage `json:"spec,omitempty"`
	State       string          `json:"state"`
	ShardsDone  int             `json:"shards_done,omitempty"`
	ShardsTotal int             `json:"shards_total,omitempty"`
	UnitsDone   int             `json:"units_done,omitempty"`
	UnitsTotal  int             `json:"units_total,omitempty"`
	Submitted   int64           `json:"submitted_unix_ms"`
	Finished    int64           `json:"finished_unix_ms,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
}

const jobDBFile = "jobs.jsonl"

// openJobDB loads (and compacts) the database under dir, creating it on
// first use.  A nil receiver is valid everywhere — an in-memory-only
// daemon (no JobDir) simply has no durable jobs.
func openJobDB(dir string) (*jobDB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job db: %w", err)
	}
	path := filepath.Join(dir, jobDBFile)
	db := &jobDB{recs: map[string]jobRecord{}}
	// A database written before the wal frame is read once in its bare
	// line format; the compaction below rewrites it framed.
	_, err := wal.ReplayLegacy(path, wal.FailInterior, func(blob []byte) error {
		var rec jobRecord
		if err := json.Unmarshal(blob, &rec); err != nil {
			return fmt.Errorf("%w: %v", wal.ErrDamaged, err)
		}
		if rec.ID == "" {
			return fmt.Errorf("%w: job record without id", wal.ErrDamaged)
		}
		db.recs[rec.ID] = rec
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("serve: job db: %w", err)
	}
	if db.log, err = wal.Open(path); err != nil {
		return nil, fmt.Errorf("serve: job db: %w", err)
	}
	recs := db.all()
	vals := make([]any, len(recs))
	for i := range recs {
		vals[i] = recs[i]
	}
	if err := db.log.Rewrite(vals); err != nil {
		db.log.Close()
		return nil, fmt.Errorf("serve: job db compact: %w", err)
	}
	return db, nil
}

// put records a state transition: append one line, fsync, remember.  A
// refused write is counted; after one the log refuses every later put
// until the daemon restarts.
func (db *jobDB) put(rec jobRecord) error {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.log.Append(rec); err != nil {
		obsJobDBWriteFailures.Add(1)
		return fmt.Errorf("serve: job db: %w", err)
	}
	db.recs[rec.ID] = rec
	return nil
}

// close releases the append handle; later puts fail.
func (db *jobDB) close() error {
	if db == nil {
		return nil
	}
	return db.log.Close()
}

// get returns the latest record for id.
func (db *jobDB) get(id string) (jobRecord, bool) {
	if db == nil {
		return jobRecord{}, false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	rec, ok := db.recs[id]
	return rec, ok
}

// all snapshots every record, submission order.
func (db *jobDB) all() []jobRecord {
	if db == nil {
		return nil
	}
	db.mu.Lock()
	out := make([]jobRecord, 0, len(db.recs))
	for _, rec := range db.recs {
		out = append(out, rec)
	}
	db.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Submitted != out[j].Submitted {
			return out[i].Submitted < out[j].Submitted
		}
		return out[i].ID < out[j].ID
	})
	return out
}
