package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"steac/internal/wal"
)

// Typed checkpoint errors.  Repairable damage (a torn or bit-flipped
// journal entry) never surfaces as an error — the shard is re-run — but
// structural problems that could hide wrong results fail loudly with one
// of these, so callers can distinguish "stale format" from "wrong
// campaign" from "unreadable".
var (
	// ErrSchemaVersion marks a checkpoint (manifest or journal entry)
	// written by an incompatible format version.  Resuming would require
	// guessing at semantics, so it is refused rather than repaired.
	ErrSchemaVersion = errors.New("campaign: checkpoint schema version mismatch")
	// ErrCheckpointMismatch marks a checkpoint whose manifest fingerprint
	// does not match the spec being run: the directory belongs to a
	// different campaign.
	ErrCheckpointMismatch = errors.New("campaign: checkpoint belongs to a different campaign")
	// ErrCheckpointCorrupt marks a manifest that cannot be parsed or
	// fails its own integrity checks.  The journal can self-heal entry by
	// entry; the manifest is the root of trust and cannot.
	ErrCheckpointCorrupt = errors.New("campaign: checkpoint manifest corrupt")
)

const (
	manifestName = "MANIFEST.json"
	journalName  = "journal.jsonl"
)

// manifest is the checkpoint root of trust: the campaign's Plan stamped
// with the schema version, written once (atomically, via temp file +
// rename + fsync) when the checkpoint directory is created.
type manifest struct {
	Schema string `json:"schema"`
	Plan
}

// entry is one journal record: a completed shard's outcome vector, keyed
// by the shard's content address.  The wal frame checksums it; any field
// that fails to check out drops the whole entry and the shard re-runs.
type entry struct {
	Schema string  `json:"schema"`
	Shard  int     `json:"shard"`
	Key    string  `json:"key"`
	Out    []int64 `json:"out"`
}

// newEntry builds the journal record of one completed shard.
func newEntry(man manifest, shard int, out []int64) entry {
	lo, hi := shardBounds(man.Units, man.ShardSize, shard)
	return entry{Schema: SchemaVersion, Shard: shard, Key: shardKey(man.Fingerprint, shard, lo, hi), Out: out}
}

// scanJournal replays a journal file under the wal SkipInterior policy and
// validates every entry against the manifest, returning the surviving
// shard outcomes and the count of dropped (repairable) entries.  Entries
// are judged one by one:
//
//   - wrong schema version on an otherwise well-formed entry → loud
//     ErrSchemaVersion (a format change can silently re-interpret data;
//     never guess);
//   - bad frame or CRC (entries written before the wal frame included),
//     undecodable record, wrong key, wrong length, shard index out of
//     range, duplicate shard → drop and count as repaired (the shard just
//     re-runs, cheap and always safe);
//   - a torn final line (from a crash mid-append) → same repair path.
//
// A missing journal is an empty one.
func scanJournal(path string, man manifest) (loaded map[int][]int64, repaired int, err error) {
	loaded = map[int][]int64{}
	repaired, err = wal.Replay(path, wal.SkipInterior, func(rec []byte) error {
		var e entry
		if err := json.Unmarshal(rec, &e); err != nil {
			return fmt.Errorf("%w: %v", wal.ErrDamaged, err)
		}
		if e.Schema != SchemaVersion {
			return fmt.Errorf("%w: journal entry for shard %d has %q, this binary speaks %q",
				ErrSchemaVersion, e.Shard, e.Schema, SchemaVersion)
		}
		if e.Shard < 0 || e.Shard >= man.Shards {
			return wal.ErrDamaged
		}
		lo, hi := shardBounds(man.Units, man.ShardSize, e.Shard)
		if len(e.Out) != hi-lo || e.Key != shardKey(man.Fingerprint, e.Shard, lo, hi) {
			return wal.ErrDamaged
		}
		if _, dup := loaded[e.Shard]; dup {
			return wal.ErrDamaged
		}
		loaded[e.Shard] = e.Out
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: scan journal: %w", err)
	}
	return loaded, repaired, nil
}

// sideJournals lists the per-writer journal files of a multi-writer
// checkpoint directory (journal-<writer>.jsonl), sorted by name so scans
// are deterministic.
func sideJournals(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("campaign: list journals: %w", err)
	}
	sort.Strings(matches)
	return matches, nil
}

// scanJournals merges every journal of a checkpoint directory — the
// primary journal.jsonl plus any per-writer side journals left by
// distributed fabric nodes — under the per-entry validation of
// scanJournal.  Within one file a duplicate shard is damage (a writer
// never journals a shard twice) and counts as repaired; across files a
// duplicate is the expected trace of a stolen-and-still-completed shard,
// so the first valid entry wins and the rest are ignored silently.  The
// campaign outcome is deterministic, so any two valid entries for the same
// shard carry identical vectors.
func scanJournals(dir string, man manifest) (loaded map[int][]int64, repaired int, err error) {
	files, err := sideJournals(dir)
	if err != nil {
		return nil, 0, err
	}
	files = append([]string{filepath.Join(dir, journalName)}, files...)
	loaded = map[int][]int64{}
	for _, path := range files {
		one, rep, err := scanJournal(path, man)
		if err != nil {
			return nil, 0, err
		}
		repaired += rep
		for shard, out := range one {
			if _, dup := loaded[shard]; !dup {
				loaded[shard] = out
			}
		}
	}
	return loaded, repaired, nil
}

// readManifest reads dir's manifest and checks its own integrity (not its
// match against any particular campaign).
func readManifest(dir string) (manifest, error) {
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		return manifest{}, fmt.Errorf("campaign: read manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return manifest{}, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, path, err)
	}
	if man.Schema != SchemaVersion {
		return manifest{}, fmt.Errorf("%w: checkpoint has %q, this binary speaks %q",
			ErrSchemaVersion, man.Schema, SchemaVersion)
	}
	if man.Fingerprint == "" || man.Units <= 0 || man.ShardSize <= 0 ||
		man.Shards != shardCount(man.Units, man.ShardSize) {
		return manifest{}, fmt.Errorf("%w: inconsistent geometry", ErrCheckpointCorrupt)
	}
	return man, nil
}

// checkpoint is an open checkpoint directory: the validated manifest, the
// shards already completed by earlier runs, and an append handle on the
// primary journal.
type checkpoint struct {
	man      manifest
	loaded   map[int][]int64 // shard index -> outcome vector
	repaired int             // journal entries dropped as damaged
	journal  *Store
}

// openCheckpoint opens dir as a checkpoint for the campaign described by
// want, creating it if absent; the manifest is checked (and its geometry
// wins) exactly as by CreateStore.  The journal is then loaded via
// scanJournal, and compacted to only the surviving entries if anything was
// dropped, so damage does not accumulate across resumes.
func openCheckpoint(dir string, want Plan) (*checkpoint, error) {
	plan, err := CreateStore(dir, want)
	if err != nil {
		return nil, err
	}
	ck := &checkpoint{man: plan.manifest()}
	ck.loaded, ck.repaired, err = scanJournals(dir, ck.man)
	if err != nil {
		return nil, err
	}
	sides, err := sideJournals(dir)
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(filepath.Join(dir, journalName))
	if err != nil {
		return nil, fmt.Errorf("campaign: open journal: %w", err)
	}
	ck.journal = &Store{man: ck.man, log: log}
	// Compact when damage was dropped, and also when side journals from a
	// multi-writer (fabric) run exist: a single-process resume owns the
	// directory exclusively, so it may fold everything into the primary
	// journal and delete the side files.  (Live fabric directories are only
	// read via LoadOutcomes, which never compacts.)
	if ck.repaired > 0 || len(sides) > 0 {
		if err := ck.compact(sides); err != nil {
			log.Close()
			return nil, err
		}
	}
	return ck, nil
}

// compact atomically rewrites the primary journal with only the surviving
// entries, in shard order, then removes the side journals it absorbed.  A
// crash part-way through the removals just leaves benign cross-file
// duplicates for the next scan.
func (ck *checkpoint) compact(sides []string) error {
	var recs []any
	for shard := 0; shard < ck.man.Shards; shard++ {
		if out, ok := ck.loaded[shard]; ok {
			recs = append(recs, newEntry(ck.man, shard, out))
		}
	}
	if err := ck.journal.log.Rewrite(recs); err != nil {
		return fmt.Errorf("campaign: compact journal: %w", err)
	}
	for _, side := range sides {
		if err := os.Remove(side); err != nil {
			return fmt.Errorf("campaign: compact journal: %w", err)
		}
	}
	return nil
}

func mustMarshalManifest(m manifest) []byte {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // manifest fields are all marshalable
	}
	return append(b, '\n')
}

// CheckpointInfo is the durable state of a checkpoint directory, as
// reported by Inspect.
type CheckpointInfo struct {
	Kind        string          `json:"kind"`
	Fingerprint string          `json:"fingerprint"`
	Spec        json.RawMessage `json:"spec"`
	Units       int             `json:"units"`
	ShardSize   int             `json:"shard_size"`
	Shards      int             `json:"shards"`
	// ShardsDone counts valid journaled shards; Repaired counts damaged
	// entries that a resume would drop and re-run.
	ShardsDone int `json:"shards_done"`
	Repaired   int `json:"repaired"`
}

// Inspect reads a checkpoint directory without running anything: manifest
// plus a validation pass over the journal.  It shares the loud-error
// taxonomy of resume (ErrSchemaVersion / ErrCheckpointCorrupt /
// ErrCheckpointMismatch is not applicable — there is no spec to compare)
// but does not compact or otherwise modify the directory.
func Inspect(dir string) (*CheckpointInfo, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	loaded, repaired, err := scanJournals(dir, man)
	if err != nil {
		return nil, err
	}
	return &CheckpointInfo{
		Kind: man.Kind, Fingerprint: man.Fingerprint, Spec: man.Spec,
		Units: man.Units, ShardSize: man.ShardSize, Shards: man.Shards,
		ShardsDone: len(loaded), Repaired: repaired,
	}, nil
}
