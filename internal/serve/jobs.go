package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"steac/internal/campaign"
	"steac/internal/envelope"
	"steac/internal/fabric"
	"steac/internal/obs"
)

// The async job API: fault campaigns are minutes-to-hours of work, far
// past any sane HTTP deadline, so they run as jobs instead of requests.
//
//	POST   /v1/jobs       submit a campaign spec  -> 202 + job status
//	GET    /v1/jobs/{id}  poll progress/result    -> 200
//	DELETE /v1/jobs/{id}  cancel (graceful drain) -> 202
//
// Jobs are content-addressed and tenant-scoped: the id derives from the
// campaign fingerprint (for anonymous daemons it is a fingerprint prefix;
// with a tenant set it is additionally keyed by the owning tenant, so two
// tenants submitting the same spec get distinct jobs and checkpoints).
// Submitting the same spec twice under the same identity converges on the
// same job.  Every state transition is appended to the fsync'd job
// database under the checkpoint root, so a restarted daemon still knows
// every job's owner, spec, progress, and terminal result — recovery is a
// client no-op: poll the same id, or re-POST the spec to resume from the
// journal.

var (
	obsJobsSubmitted = obs.GetCounter("serve.jobs_submitted")
	obsJobsDone      = obs.GetCounter("serve.jobs_completed")
	obsJobsFailed    = obs.GetCounter("serve.jobs_failed")
	obsJobsCanceled  = obs.GetCounter("serve.jobs_canceled")
	obsJobsActive    = obs.GetGauge("serve.jobs_active")
)

// JobRequest is the POST /v1/jobs body.  Kind and Spec are the semantic
// payload (they form the job id); Workers and ShardSize are execution
// tuning and change nothing about the result.
type JobRequest struct {
	Kind string          `json:"kind"`
	Spec json.RawMessage `json:"spec"`
	// Workers is the campaign pool size (0 = server default).
	Workers int `json:"workers,omitempty"`
	// ShardSize is the checkpoint shard granularity (0 = campaign
	// default; an existing checkpoint's manifest wins regardless).
	ShardSize int `json:"shard_size,omitempty"`
	// Fabric routes the campaign to the fabric coordinator (leased out to
	// joined nodes) instead of the local pool.  Requires the daemon to
	// run as a coordinator; otherwise the submission is a 400.
	Fabric bool `json:"fabric,omitempty"`
}

// JobStatus is the wire form of one job, returned by every job endpoint.
type JobStatus struct {
	ID string `json:"id"`
	// Tenant is the owning tenant's id.  Jobs are only visible to their
	// owner, so this is informational ("anon" on daemons without a tenant
	// set).
	Tenant      string `json:"tenant,omitempty"`
	Kind        string `json:"kind"`
	Fingerprint string `json:"fingerprint"`
	// State is queued | running | done | failed | canceled, or
	// checkpointed for a job known only from the durable database or the
	// checkpoint directory (no live job in this process, e.g. after a
	// daemon restart).
	State       string `json:"state"`
	ShardsDone  int    `json:"shards_done"`
	ShardsTotal int    `json:"shards_total,omitempty"`
	UnitsDone   int    `json:"units_done,omitempty"`
	UnitsTotal  int    `json:"units_total,omitempty"`
	// Resumed and Repaired are checkpoint accounting: shards replayed
	// from the journal and damaged entries dropped on load.
	Resumed  int `json:"resumed,omitempty"`
	Repaired int `json:"repaired,omitempty"`
	// ElapsedMS covers queued+running time so far (or to completion);
	// EtaMS extrapolates the remaining units from the rate observed so
	// far (absent until the first shard completes).
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	EtaMS     int64 `json:"eta_ms,omitempty"`
	// Counters is the campaign.* obs counter snapshot at status time
	// (fabric.* for fabric jobs).
	Counters []obs.MetricValue `json:"counters,omitempty"`
	// Fabric is the fabric-wide progress view for distributed jobs:
	// leased/complete/stolen shard ledgers per node.  Local-pool jobs
	// omit it.
	Fabric *fabric.Progress `json:"fabric,omitempty"`
	// Result is the engine report once State is done.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// Job states.
const (
	jobQueued       = "queued"
	jobRunning      = "running"
	jobDone         = "done"
	jobFailed       = "failed"
	jobCanceled     = "canceled"
	jobCheckpointed = "checkpointed"
)

// campaignJob is one live job in this process.
type campaignJob struct {
	id          string
	tenant      string
	kind        string
	fingerprint string
	spec        campaign.Spec
	rawSpec     json.RawMessage
	dir         string
	cancel      context.CancelCauseFunc

	mu          sync.Mutex
	state       string
	shardsDone  int
	shardsTotal int
	unitsDone   int
	unitsTotal  int
	resumed     int
	repaired    int
	started     time.Time // submission
	firstShard  time.Time // first shard completed in this process
	finished    time.Time
	result      json.RawMessage
	errMsg      string
	fabricProg  *fabric.Progress // latest coordinator snapshot; nil for local jobs
}

// status snapshots the job as a JobStatus.
func (j *campaignJob) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.id, Tenant: j.tenant, Kind: j.kind, Fingerprint: j.fingerprint, State: j.state,
		ShardsDone: j.shardsDone, ShardsTotal: j.shardsTotal,
		UnitsDone: j.unitsDone, UnitsTotal: j.unitsTotal,
		Resumed: j.resumed, Repaired: j.repaired,
		Result: j.result, Error: j.errMsg,
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	st.ElapsedMS = end.Sub(j.started).Milliseconds()
	if j.fabricProg != nil {
		// Fabric jobs report the coordinator's fabric-wide view: shard
		// and unit totals across every node, per-node lease/steal
		// ledgers, and the coordinator's own rate-based ETA — the local
		// single-pool extrapolation below would undercount a cluster.
		prog := *j.fabricProg
		st.Fabric = &prog
		st.EtaMS = prog.EtaMS
		st.Counters = obs.CountersPrefix("fabric.")
		return st
	}
	if j.state == jobRunning && !j.firstShard.IsZero() && j.unitsDone > 0 && j.unitsDone < j.unitsTotal {
		rate := float64(j.unitsDone) / float64(time.Since(j.firstShard))
		if rate > 0 {
			st.EtaMS = int64(float64(j.unitsTotal-j.unitsDone) / rate / float64(time.Millisecond))
		}
	}
	st.Counters = obs.CountersPrefix("campaign.")
	return st
}

// record snapshots the job as a durable database row.  Callers must not
// hold j.mu.
func (j *campaignJob) record() jobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recordLocked()
}

func (j *campaignJob) recordLocked() jobRecord {
	rec := jobRecord{
		ID: j.id, Tenant: j.tenant, Kind: j.kind, Fingerprint: j.fingerprint,
		Spec: j.rawSpec, State: j.state,
		ShardsDone: j.shardsDone, ShardsTotal: j.shardsTotal,
		UnitsDone: j.unitsDone, UnitsTotal: j.unitsTotal,
		Submitted: j.started.UnixMilli(),
		Result:    j.result, Error: j.errMsg,
	}
	if !j.finished.IsZero() {
		rec.Finished = j.finished.UnixMilli()
	}
	return rec
}

// jobManager owns the live jobs of one Server plus the durable database.
type jobManager struct {
	dir     string
	workers int
	sem     chan struct{}
	wg      sync.WaitGroup
	fabric  *fabric.Coordinator // non-nil when this daemon coordinates a fabric
	db      *jobDB              // nil when no JobDir is configured
	dbErr   error               // deferred openJobDB failure, surfaced on submit
	// ingest, when non-nil, receives every job row that reaches the done
	// state — the results-catalog hook (Server.ingestJobRecord).
	ingest func(jobRecord)

	mu   sync.Mutex
	jobs map[string]*campaignJob
}

func newJobManager(dir string, maxJobs, workers int) *jobManager {
	if maxJobs <= 0 {
		maxJobs = 2
	}
	jm := &jobManager{
		dir:     dir,
		workers: workers,
		sem:     make(chan struct{}, maxJobs),
		jobs:    map[string]*campaignJob{},
	}
	if dir != "" {
		jm.db, jm.dbErr = openJobDB(dir)
	}
	return jm
}

// jobID derives the job identifier from the owning tenant and the campaign
// fingerprint.  Anonymous daemons keep the historical fingerprint-prefix
// ids (so pre-tenancy checkpoints and clients keep working); named tenants
// get ids additionally keyed by identity, which also namespaces their
// checkpoint directories — two tenants running the same spec never share
// state or visibility.
func jobID(tenant, fingerprint string) string {
	if tenant == "" || tenant == AnonTenant {
		return fingerprint[:16]
	}
	sum := sha256.Sum256([]byte(tenant + "\x00" + fingerprint))
	return hex.EncodeToString(sum[:])[:16]
}

// validJobID reports whether id has the exact shape jobID produces — 16
// lowercase-hex characters.  Anything else cannot name a job and must
// never be joined into a checkpoint path (a client-supplied id reaches
// the filesystem in handleJobGet's disk fallback).
func validJobID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// quotaLocked enforces the tenant's concurrent-job allowance: the count of
// its live queued/running jobs must stay under MaxJobs.  Caller holds
// jm.mu.
func (jm *jobManager) quotaLocked(tn *tenantState) error {
	if tn.Tenant.MaxJobs <= 0 {
		return nil
	}
	live := 0
	for _, j := range jm.jobs {
		if j.tenant != tn.ID {
			continue
		}
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state == jobQueued || state == jobRunning {
			live++
		}
	}
	if live >= tn.Tenant.MaxJobs {
		return fmt.Errorf("%w: tenant %q already has %d of %d jobs live",
			ErrQuotaExceeded, tn.ID, live, tn.Tenant.MaxJobs)
	}
	return nil
}

// submit starts (or joins) the job for a spec.  Resubmitting a spec while
// its job is queued, running, or done returns the existing job untouched;
// resubmitting after a failure or cancellation starts a fresh attempt,
// which — with a checkpoint directory — resumes from the journal.
func (jm *jobManager) submit(tn *tenantState, spec campaign.Spec, req JobRequest) (*campaignJob, error) {
	if jm.dbErr != nil {
		return nil, fmt.Errorf("serve: job database unavailable: %w", jm.dbErr)
	}
	fingerprint, err := campaign.Fingerprint(spec)
	if err != nil {
		return nil, err
	}
	id := jobID(tn.ID, fingerprint)

	jm.mu.Lock()
	defer jm.mu.Unlock()
	if j, ok := jm.jobs[id]; ok {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state != jobFailed && state != jobCanceled {
			return j, nil
		}
	}
	if err := jm.quotaLocked(tn); err != nil {
		return nil, err
	}

	j := &campaignJob{
		id: id, tenant: tn.ID, kind: spec.Kind(), fingerprint: fingerprint,
		spec: spec, rawSpec: req.Spec,
		state: jobQueued, started: time.Now(),
	}
	if jm.dir != "" {
		j.dir = filepath.Join(jm.dir, id)
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	jm.jobs[id] = j
	if err := jm.db.put(j.record()); err != nil {
		delete(jm.jobs, id)
		cancel(err)
		return nil, err
	}

	obsJobsSubmitted.Add(1)
	jm.wg.Add(1)
	go jm.run(ctx, j, req.Workers, req.ShardSize)
	return j, nil
}

// submitFabric starts (or joins) a distributed job: the campaign is
// registered with the fabric coordinator and executed by whatever nodes
// lease its shards; the local job merely tracks coordinator progress, so
// it does not consume a MaxJobs slot (though it still counts against the
// tenant's own quota).  Campaign identity on the fabric is the spec
// fingerprint; the HTTP-visible job id is tenant-scoped like local jobs.
func (jm *jobManager) submitFabric(ctx context.Context, tn *tenantState, spec campaign.Spec, req JobRequest) (*campaignJob, error) {
	if jm.dbErr != nil {
		return nil, fmt.Errorf("serve: job database unavailable: %w", jm.dbErr)
	}
	payload, err := spec.Marshal()
	if err != nil {
		return nil, err
	}
	info, err := jm.fabric.Submit(ctx, fabric.SubmitRequest{
		Kind: spec.Kind(), Spec: payload, ShardSize: req.ShardSize, Tenant: tn.ID,
	})
	if err != nil {
		return nil, err
	}
	id := jobID(tn.ID, info.Fingerprint)

	jm.mu.Lock()
	defer jm.mu.Unlock()
	if j, ok := jm.jobs[id]; ok {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		if state != jobFailed && state != jobCanceled {
			return j, nil
		}
	}
	if err := jm.quotaLocked(tn); err != nil {
		return nil, err
	}
	j := &campaignJob{
		id: id, tenant: tn.ID, kind: spec.Kind(), fingerprint: info.Fingerprint,
		spec: spec, rawSpec: req.Spec,
		state: jobRunning, started: time.Now(),
		fabricProg: &fabric.Progress{Fingerprint: info.Fingerprint, Kind: info.Kind, State: "running"},
	}
	watchCtx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	jm.jobs[id] = j
	if err := jm.db.put(j.record()); err != nil {
		delete(jm.jobs, id)
		cancel(err)
		return nil, err
	}
	obsJobsSubmitted.Add(1)
	jm.wg.Add(1)
	go jm.watchFabric(watchCtx, j)
	return j, nil
}

// watchFabric tracks one distributed job: poll the coordinator until the
// campaign merges, then record its report.  Canceling the job stops the
// watch only — the fabric campaign itself belongs to the coordinator and
// keeps running on its nodes.
func (jm *jobManager) watchFabric(ctx context.Context, j *campaignJob) {
	defer jm.wg.Done()
	obsJobsActive.Set(obsJobsActive.Value() + 1)
	defer func() { obsJobsActive.Set(obsJobsActive.Value() - 1) }()
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		prog, err := jm.fabric.Progress(j.fingerprint)
		if err != nil {
			jm.finish(j, nil, err)
			return
		}
		j.mu.Lock()
		j.fabricProg = &prog
		j.shardsDone = prog.ShardsComplete
		j.shardsTotal = prog.ShardsTotal
		j.unitsDone = prog.UnitsDone
		j.unitsTotal = prog.UnitsTotal
		j.mu.Unlock()
		if prog.State == "done" {
			raw, err := jm.fabric.Report(j.fingerprint)
			if err != nil {
				jm.finish(j, nil, err)
				return
			}
			jm.settle(j, func() {
				j.state = jobDone
				j.result = raw
			})
			return
		}
		select {
		case <-ctx.Done():
			jm.finish(j, nil, fmt.Errorf("fabric watch stopped (%v): %w", context.Cause(ctx), ctx.Err()))
			return
		case <-ticker.C:
		}
	}
}

// run executes one job: wait for a slot, run the checkpointed campaign,
// record the outcome.  Cancellation while queued or running flows through
// ctx; the campaign layer drains in-flight shards to the journal before
// returning.
func (jm *jobManager) run(ctx context.Context, j *campaignJob, workers, shardSize int) {
	defer jm.wg.Done()
	select {
	case jm.sem <- struct{}{}:
		defer func() { <-jm.sem }()
	case <-ctx.Done():
		jm.finish(j, nil, fmt.Errorf("job canceled while queued (%v): %w", context.Cause(ctx), ctx.Err()))
		return
	}

	// A job the database cannot record as running fails before any
	// compute.
	j.mu.Lock()
	rec := j.recordLocked()
	rec.State = jobRunning
	err := jm.db.put(rec)
	if err == nil {
		j.state = jobRunning
	}
	j.mu.Unlock()
	if err != nil {
		jm.finish(j, nil, err)
		return
	}
	obsJobsActive.Set(obsJobsActive.Value() + 1)
	defer func() { obsJobsActive.Set(obsJobsActive.Value() - 1) }()

	if workers <= 0 {
		workers = jm.workers
	}
	res, err := campaign.Run(ctx, j.spec, campaign.Options{
		Workers:   workers,
		ShardSize: shardSize,
		Dir:       j.dir,
		OnShard: func(ev campaign.ShardEvent) {
			j.mu.Lock()
			j.shardsDone = ev.Done
			j.shardsTotal = ev.Total
			j.unitsTotal = ev.UnitsTotal
			if ev.Resumed {
				j.resumed++
			} else {
				j.unitsDone = ev.UnitsDone
				if j.firstShard.IsZero() {
					j.firstShard = time.Now()
				}
			}
			j.mu.Unlock()
		},
	})
	jm.finish(j, res, err)
}

// finish records a job's terminal state, in memory and in the database.
func (jm *jobManager) finish(j *campaignJob, res *campaign.Result, err error) {
	jm.settle(j, func() {
		switch {
		case err == nil:
			blob, merr := json.Marshal(res.Report)
			if merr != nil {
				j.state = jobFailed
				j.errMsg = merr.Error()
				return
			}
			j.state = jobDone
			j.result = blob
			j.resumed = res.Resumed
			j.repaired = res.Repaired
			j.shardsDone = res.Shards
			j.shardsTotal = res.Shards
			j.unitsDone = j.unitsTotal
		case errors.Is(err, context.Canceled):
			j.state = jobCanceled
			j.errMsg = err.Error()
		default:
			j.state = jobFailed
			j.errMsg = err.Error()
		}
	})
}

// settle applies a terminal state to j (set runs under j.mu) and records
// it.  The row is written while j.mu is held, so no poller ever sees a
// terminal state the database has not acknowledged.  If the database
// refuses the row, the job fails with that error and is not ingested into
// the catalog; the database keeps its last acknowledged row, so after a
// restart the job reads as checkpointed and stays resumable.
func (jm *jobManager) settle(j *campaignJob, set func()) {
	j.mu.Lock()
	j.finished = time.Now()
	set()
	rec := j.recordLocked()
	if err := jm.db.put(rec); err != nil {
		j.state = jobFailed
		j.result = nil
		j.errMsg = err.Error()
		rec.State = jobFailed
	}
	j.mu.Unlock()
	switch rec.State {
	case jobDone:
		obsJobsDone.Add(1)
		if jm.ingest != nil {
			jm.ingest(rec)
		}
	case jobCanceled:
		obsJobsCanceled.Add(1)
	default:
		obsJobsFailed.Add(1)
	}
}

// get returns the live job, or nil.
func (jm *jobManager) get(id string) *campaignJob {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.jobs[id]
}

// drain cancels every live job (the campaign layer journals in-flight
// shards before unwinding — graceful-drain checkpointing) and waits for
// them to settle or ctx to expire.
func (jm *jobManager) drain(ctx context.Context) error {
	jm.mu.Lock()
	for _, j := range jm.jobs {
		j.cancel(errors.New("server draining"))
	}
	jm.mu.Unlock()
	settled := make(chan struct{})
	go func() {
		jm.wg.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain jobs: %w", ctx.Err())
	}
}

// handleJobSubmit is POST /v1/jobs.  Admission has already refused it
// while draining and spent its rate-limit token; the body is decoded, then
// checked against the tenant's concurrent-job quota.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request, tn *tenantState) error {
	var req JobRequest
	if err := decode(w, r, "job request", &req); err != nil {
		return err
	}
	if req.Kind == "" || len(req.Spec) == 0 {
		return badRequestf("serve: job needs kind and spec")
	}
	spec, err := campaign.Decode(req.Kind, req.Spec)
	if err != nil {
		return errBadRequest{err}
	}
	var j *campaignJob
	if req.Fabric {
		if s.jobMgr.fabric == nil {
			return badRequestf("serve: fabric job submitted but this daemon is not a coordinator")
		}
		j, err = s.jobMgr.submitFabric(r.Context(), tn, spec, req)
	} else {
		j, err = s.jobMgr.submit(tn, spec, req)
	}
	if err != nil {
		if errors.Is(err, ErrQuotaExceeded) {
			obsQuotaRejs.Add(1)
			tn.rejects.Add(1)
			return err
		}
		return errBadRequest{err}
	}
	envelope.WriteJSON(w, http.StatusAccepted, j.status())
	return nil
}

// statusFromRecord renders a durable database row for a job with no live
// instance in this process: terminal rows keep their recorded state and
// result; interrupted rows report "checkpointed", overlaid with whatever
// progress the on-disk campaign journal holds.
func (s *Server) statusFromRecord(rec jobRecord) JobStatus {
	st := JobStatus{
		ID: rec.ID, Tenant: rec.Tenant, Kind: rec.Kind, Fingerprint: rec.Fingerprint,
		State:      rec.State,
		ShardsDone: rec.ShardsDone, ShardsTotal: rec.ShardsTotal,
		UnitsDone: rec.UnitsDone, UnitsTotal: rec.UnitsTotal,
		Result: rec.Result, Error: rec.Error,
	}
	if rec.Finished > 0 {
		st.ElapsedMS = rec.Finished - rec.Submitted
	}
	switch rec.State {
	case jobDone, jobFailed:
		return st
	}
	// Canceled or interrupted mid-flight: if the checkpoint survives, the
	// job is resumable — report "checkpointed" with the journal's progress
	// rather than a stale queued/running/canceled claim.  A canceled job
	// whose checkpoint is gone stays canceled.
	if s.jobMgr.dir != "" {
		if info, err := campaign.Inspect(filepath.Join(s.jobMgr.dir, rec.ID)); err == nil {
			st.State = jobCheckpointed
			st.ShardsDone, st.ShardsTotal = info.ShardsDone, info.Shards
			st.UnitsTotal, st.Repaired = info.Units, info.Repaired
			return st
		}
	}
	if rec.State != jobCanceled {
		st.State = jobCheckpointed
	}
	return st
}

// handleJobGet is GET /v1/jobs/{id}.  Visibility is scoped to the owning
// tenant: another tenant's job id — even a guessed one — answers the same
// 404 as a job that never existed.  A job with no live instance is served
// from the durable database (pre-restart submissions keep their terminal
// results; interrupted ones report "checkpointed"), falling back to a bare
// checkpoint-directory inspection for databases predating the job DB.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request, tn *tenantState) error {
	id := r.PathValue("id")
	notFound := func() error { return fmt.Errorf("%w: no job %q", ErrNotFound, id) }
	if j := s.jobMgr.get(id); j != nil {
		if j.tenant != tn.ID {
			return notFound()
		}
		envelope.WriteJSON(w, http.StatusOK, j.status())
		return nil
	}
	if rec, ok := s.jobMgr.db.get(id); ok {
		if rec.Tenant != tn.ID {
			return notFound()
		}
		envelope.WriteJSON(w, http.StatusOK, s.statusFromRecord(rec))
		return nil
	}
	if s.jobMgr.dir != "" && validJobID(id) {
		dir := filepath.Join(s.jobMgr.dir, id)
		if info, err := campaign.Inspect(dir); err == nil {
			envelope.WriteJSON(w, http.StatusOK, JobStatus{
				ID: id, Tenant: tn.ID, Kind: info.Kind, Fingerprint: info.Fingerprint,
				State:      jobCheckpointed,
				ShardsDone: info.ShardsDone, ShardsTotal: info.Shards,
				UnitsTotal: info.Units, Repaired: info.Repaired,
			})
			return nil
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return notFound()
}

// handleJobCancel is DELETE /v1/jobs/{id}: cancel the job's context and
// return its (soon to be canceled) status.  The campaign layer finishes
// and journals in-flight shards, so a canceled job's checkpoint is exactly
// resumable.  Ownership-scoped like GET.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, tn *tenantState) error {
	id := r.PathValue("id")
	j := s.jobMgr.get(id)
	if j == nil || j.tenant != tn.ID {
		return fmt.Errorf("%w: no job %q", ErrNotFound, id)
	}
	j.cancel(errors.New("canceled by client"))
	envelope.WriteJSON(w, http.StatusAccepted, j.status())
	return nil
}
