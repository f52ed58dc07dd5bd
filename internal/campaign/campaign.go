// Package campaign is the checkpointable fault-campaign job runner: it
// splits a deterministic campaign (memfault March coverage, xcheck
// stuck-at injection) into content-addressed shards, executes them on a
// work-stealing worker pool, and journals every completed shard to an
// on-disk, fsync'd, schema-versioned checkpoint directory — a killed
// process resumes exactly where it left off and produces a bit-identical
// final report to an uninterrupted run.
//
// The determinism contract, which everything else leans on:
//
//   - A shard's outcome vector depends only on the campaign spec and the
//     shard's unit range — never on worker identity, execution order, or
//     wall-clock time.  Shards are keyed by the SHA-256 of the schema
//     version, the canonical spec JSON, and the unit range, so a journal
//     entry is valid if and only if its key matches what the spec demands.
//   - The final report is assembled from the full outcome vector in unit
//     order through the engine's own Assemble path (memfault.Assemble,
//     xcheck CampaignSim.Assemble), the same code an in-process run uses.
//     Sharded == unsharded == resumed, byte for byte.
//   - Resume trusts nothing: the manifest fingerprint must match the spec,
//     every journal entry must decode, carry the current schema version,
//     the right key, the right length, and a valid CRC.  A damaged entry
//     is dropped and its shard re-run (repair); a stale schema or foreign
//     manifest fails loudly with a typed error.  There is no path to a
//     silently wrong coverage number.
//
// Execution uses a work-stealing pool (see pool.go): shards are dealt to
// per-worker deques in contiguous blocks, owners pop LIFO, idle workers
// steal FIFO from victims — skewed designs no longer leave workers idle
// the way static chunking did.
package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"steac/internal/obs"
)

// SchemaVersion names the checkpoint directory format.  Any incompatible
// change to the manifest, the journal entry layout, the shard keying, or
// the outcome encoding must bump it; resume refuses other versions with
// ErrSchemaVersion.
const SchemaVersion = "steac-campaign/v1"

// Observability.  Shard totals accumulate on the journaling side (single
// goroutine), so they are worker-count-invariant; steals are inherently
// scheduling-dependent and documented as such.
var (
	obsShardsDone    = obs.GetCounter("campaign.shards_completed")
	obsShardsResumed = obs.GetCounter("campaign.shards_resumed")
	obsUnitsDone     = obs.GetCounter("campaign.units_simulated")
	obsRepaired      = obs.GetCounter("campaign.journal_repaired")
	obsSteals        = obs.GetCounter("campaign.steals")
	obsActive        = obs.GetGauge("campaign.active")
)

// Spec describes one deterministic campaign: a kind tag, a canonical JSON
// payload (the content address), and a way to prepare an Executor.
type Spec interface {
	// Kind is the short stable identifier the registry dispatches on
	// ("memfault", "xcheck").
	Kind() string
	// Marshal returns the canonical JSON payload of the spec.  Two specs
	// with equal Kind and equal payload must describe byte-identical
	// campaigns; the payload is hashed into the fingerprint and every
	// shard key, and stored verbatim in the checkpoint manifest.
	Marshal() (json.RawMessage, error)
	// Prepare performs the expensive one-time setup (golden traces,
	// compiled netlists) and returns the executor.
	Prepare(ctx context.Context) (Executor, error)
}

// Executor is a prepared campaign: a fixed number of independent work
// units plus per-goroutine workers that simulate contiguous unit ranges.
type Executor interface {
	// Units is the total number of independent work units (faults).
	Units() int
	// NewWorker returns a per-goroutine simulation context (scratch
	// buffers); Worker instances must not be shared between goroutines.
	NewWorker() (Worker, error)
	// Assemble builds the engine-native report from the full outcome
	// vector in unit order.  It must be a pure function of out.
	Assemble(out []int64) (interface{}, error)
}

// BatchSizer is optionally implemented by Executors whose workers simulate
// units in word-parallel batches (the packed fault-simulation kernels).
// Run rounds the requested shard size down to a multiple of BatchSize (but
// never below one batch) before the manifest is written, so shard interiors
// split into full words and only the final shard carries a sub-word
// remainder.  Purely a performance alignment: batch geometry is not
// semantic, and resume still honors whatever shard size an existing
// manifest recorded.
type BatchSizer interface {
	// BatchSize returns the worker's natural unit-batch width (> 1), e.g.
	// the packed-simulation lane count.
	BatchSize() int
}

// Worker simulates unit ranges for one goroutine.
type Worker interface {
	// Run simulates units [lo, hi) into out[0 : hi-lo].  The outcomes
	// must be a pure function of the spec and the unit indices.  Run must
	// poll ctx and return its error promptly once it fires; a shard whose
	// Run returned an error is never journaled.
	Run(ctx context.Context, lo, hi int, out []int64) error
}

// Options tunes a campaign run.
type Options struct {
	// Workers is the pool size (0 = GOMAXPROCS).  Non-semantic: the
	// report is identical for every worker count.
	Workers int
	// ShardSize is the number of units per shard (0 = 256).  Non-semantic
	// for the report, but part of the checkpoint identity: on resume the
	// manifest's shard size wins, so a checkpoint written with one size
	// resumes correctly under any requested size.
	ShardSize int
	// Dir is the checkpoint directory.  Empty runs the campaign fully in
	// memory: still sharded and work-stealing, but nothing survives the
	// process.
	Dir string
	// OnShard, when non-nil, observes every shard after it is durably
	// journaled (or accounted, for in-memory runs), from the single
	// journaling goroutine.  Canceling the run's context from inside the
	// callback is the supported way to stop at a shard boundary.
	OnShard func(ShardEvent)
}

// DefaultShardSize is the unit count per shard when Options.ShardSize is 0.
const DefaultShardSize = 256

func (o Options) shardSize() int {
	if o.ShardSize > 0 {
		return o.ShardSize
	}
	return DefaultShardSize
}

// ShardEvent describes one completed shard.
type ShardEvent struct {
	// Index is the shard number, Units its unit count.
	Index, Units int
	// Done and Total count shards including this one.
	Done, Total int
	// UnitsDone and UnitsTotal count work units.
	UnitsDone, UnitsTotal int
	// Resumed marks shards loaded from the checkpoint journal rather than
	// simulated in this process.
	Resumed bool
}

// Result is a finished campaign.
type Result struct {
	// Report is the engine-native report (memfault.Campaign,
	// xcheck.CampaignResult) assembled from the full outcome vector.
	Report interface{}
	// Fingerprint is the campaign content address (hex SHA-256).
	Fingerprint string
	// Shards is the shard count; Resumed of them were loaded from the
	// checkpoint and Repaired were dropped as damaged and re-run.
	Shards, Resumed, Repaired int
}

// Fingerprint returns the campaign content address of a spec: the hex
// SHA-256 over the schema version, the kind, and the canonical spec JSON.
// It names the checkpoint a campaign may resume from, and prefixes every
// shard key.
func Fingerprint(spec Spec) (string, error) {
	payload, err := spec.Marshal()
	if err != nil {
		return "", fmt.Errorf("campaign: marshal %s spec: %w", spec.Kind(), err)
	}
	h := sha256.New()
	h.Write([]byte(SchemaVersion))
	h.Write([]byte{0})
	h.Write([]byte(spec.Kind()))
	h.Write([]byte{0})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// shardKey is the content address of one shard: the hex SHA-256 (first 16
// bytes) over the campaign fingerprint and the unit range.  A journal
// entry replays into a run only when its key matches.
func shardKey(fingerprint string, index, lo, hi int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s:%d:%d:%d", fingerprint, index, lo, hi)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// alignShardSize rounds a shard size down to the executor's batch width
// (but never below one batch) when the executor advertises one — shard
// interiors then split into full packed words and only the final shard
// carries a sub-word remainder.
func alignShardSize(exec Executor, size int) int {
	if bs, ok := exec.(BatchSizer); ok {
		if b := bs.BatchSize(); b > 1 {
			size -= size % b
			if size < b {
				size = b
			}
		}
	}
	return size
}

// shardCount returns how many shards units split into at the given size.
func shardCount(units, size int) int {
	if units == 0 {
		return 0
	}
	return (units + size - 1) / size
}

// shardBounds returns the unit range [lo, hi) of shard index.
func shardBounds(units, size, index int) (lo, hi int) {
	lo = index * size
	hi = lo + size
	if hi > units {
		hi = units
	}
	return lo, hi
}

// Run executes (or resumes) the campaign described by spec.  With
// Options.Dir set it opens the checkpoint directory, replays every valid
// journaled shard, simulates the rest on the work-stealing pool, and
// journals each completion with an fsync before acknowledging it; without
// a directory it runs fully in memory on the same pool.  A canceled ctx
// stops the pool at shard boundaries, flushes completed shards to the
// journal, and returns the ctx error wrapped with the campaign kind — the
// checkpoint then holds exactly the completed shards, and a later Run with
// the same spec and directory finishes the remainder and returns a report
// byte-identical to an uninterrupted run.
func Run(ctx context.Context, spec Spec, opt Options) (*Result, error) {
	plan, exec, err := PlanCampaign(ctx, spec, opt.ShardSize)
	if err != nil {
		return nil, err
	}
	units := plan.Units
	size := plan.ShardSize

	obsActive.Set(obsActive.Value() + 1)
	defer func() { obsActive.Set(obsActive.Value() - 1) }()

	// Open (or create) the checkpoint.  On resume the manifest's shard
	// size replaces the requested one: shard keying is part of the
	// checkpoint identity.
	var ck *checkpoint
	if opt.Dir != "" {
		ck, err = openCheckpoint(opt.Dir, plan)
		if err != nil {
			return nil, err
		}
		defer ck.journal.Close()
		size = ck.man.ShardSize
	}
	shards := shardCount(units, size)

	res := &Result{Fingerprint: plan.Fingerprint, Shards: shards}
	outcomes := make([]int64, units)
	done := make([]bool, shards)
	unitsDone := 0
	if ck != nil {
		res.Repaired = ck.repaired
		obsRepaired.Add(int64(ck.repaired))
		for idx, out := range ck.loaded {
			lo, hi := shardBounds(units, size, idx)
			copy(outcomes[lo:hi], out)
			done[idx] = true
			unitsDone += hi - lo
			res.Resumed++
		}
		obsShardsResumed.Add(int64(res.Resumed))
	}
	if opt.OnShard != nil {
		// Replay resumed shards through the observer in shard order, so
		// progress accounting starts from the checkpoint state.
		seen := 0
		for idx := range done {
			if !done[idx] {
				continue
			}
			seen++
			lo, hi := shardBounds(units, size, idx)
			opt.OnShard(ShardEvent{
				Index: idx, Units: hi - lo, Done: seen, Total: shards,
				UnitsDone: 0, UnitsTotal: units, Resumed: true,
			})
		}
	}

	var pending []int
	for idx := range done {
		if !done[idx] {
			pending = append(pending, idx)
		}
	}

	if len(pending) > 0 {
		completed := res.Resumed
		err = runPool(ctx, exec, opt.Workers, pending, size, units,
			func(sr shardResult) error {
				lo, hi := shardBounds(units, size, sr.index)
				if ck != nil {
					if err := ck.journal.Append(sr.index, sr.out); err != nil {
						return err
					}
				}
				copy(outcomes[lo:hi], sr.out)
				done[sr.index] = true
				completed++
				unitsDone += hi - lo
				obsShardsDone.Add(1)
				obsUnitsDone.Add(int64(hi - lo))
				if opt.OnShard != nil {
					opt.OnShard(ShardEvent{
						Index: sr.index, Units: hi - lo, Done: completed, Total: shards,
						UnitsDone: unitsDone, UnitsTotal: units,
					})
				}
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", spec.Kind(), err)
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("campaign: %s: %w", spec.Kind(), err)
		}
	}

	report, err := exec.Assemble(outcomes)
	if err != nil {
		return nil, fmt.Errorf("campaign: assemble %s: %w", spec.Kind(), err)
	}
	res.Report = report
	return res, nil
}
