// Package serve is the STEAC flow daemon: an HTTP/JSON front end that
// accepts flow requests (the full DSC integration flow, scheduling sweeps,
// memory-fault coverage evaluation, gate-level xcheck campaigns) and runs
// them on a bounded worker pool behind a multi-tenant admission pipeline.
//
// The daemon's contract, in priority order:
//
//   - Identity first.  Every request is attributed to a tenant before any
//     resource decision (API keys from a tenants file, constant-time
//     compared; an anonymous single-tenant mode for dev).  With a tenant
//     set configured, an unknown key is 401 and never touches the queue.
//   - Bounded resources, fairly shared.  At most Config.Workers requests
//     compute at once.  Admission is deficit-round-robin fair queueing
//     across tenants: each tenant has its own bounded lane
//     (Config.QueueDepth deep) and a token-bucket rate limit plus a
//     concurrent-job quota from its tenant row.  A tenant that floods the
//     daemon fills only its own lane (429 ErrQueueFull) or its own bucket
//     (429 ErrQuotaExceeded); other tenants keep their round-robin share
//     of the pool.
//   - Deterministic memoization.  Every engine in the repository is
//     worker-count-invariant, so responses are content-addressed by the
//     canonical request hash (tuning fields zeroed; see requestKey) and
//     replayed from a bounded LRU.  A cache hit returns the exact bytes
//     the first computation produced.
//   - Prompt cancellation.  Each request runs under a deadline (TimeoutMS,
//     clamped to Config.MaxTimeout) and under the client's connection
//     context, both threaded into the engines, which poll at batch
//     boundaries — a disconnected client or expired deadline stops paying
//     for simulation within milliseconds.
//   - Typed errors.  Every non-2xx response carries the v1 wire envelope
//     {"error","code"}; serve.Client reconstructs the package sentinels
//     (ErrUnauthorized, ErrQuotaExceeded, ErrQueueFull, ErrDraining, ...)
//     so programmatic callers branch with errors.Is, not string matching.
//   - Graceful drain.  Drain stops admissions (503), lets queued and
//     in-flight work finish, then releases the workers; cmd/steacd wires
//     it to SIGTERM behind http.Server.Shutdown.
//
// Observability rides the existing obs registry: the global serve.*
// counters and gauges plus per-tenant serve.tenant.<id>.requests /
// .rejects / .queue_depth, exported as text via GET /metrics alongside
// every engine counter.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"steac/internal/catalog"
	"steac/internal/envelope"
	"steac/internal/fabric"
	"steac/internal/obs"
	"steac/internal/sched"
)

// Config tunes the daemon.  The zero value serves with sensible bounds.
type Config struct {
	// Workers is the compute pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds each tenant's admission lane (0 = 16).  The
	// global queue bound is QueueDepth × active tenants.
	QueueDepth int
	// CacheEntries bounds the response memo (0 = 128).
	CacheEntries int
	// DefaultTimeout is the per-request deadline when the request names
	// none (0 = 120s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (0 = 10m).
	MaxTimeout time.Duration
	// Tenants is the identity registry (steacd -tenants).  Nil serves in
	// anonymous mode: every caller is the unlimited "anon" tenant.
	Tenants *TenantSet
	// JobDir is the checkpoint root for async campaign jobs (POST
	// /v1/jobs); each job journals under JobDir/<id> and the durable job
	// database lives at JobDir/jobs.jsonl.  Empty keeps job state in
	// memory only — jobs still run, but nothing survives a restart.
	JobDir string
	// MaxJobs bounds concurrently running campaign jobs across all
	// tenants (0 = 2).  Jobs run on their own pool — a long campaign
	// never starves the synchronous request workers.  Per-tenant job
	// quotas come from the tenant rows.
	MaxJobs int
	// CatalogDir is the durable results-catalog root (steacd -catalog-dir).
	// When set, every completed flow run, scheduling sweep point, and
	// campaign job is ingested as a content-addressed catalog.Record, the
	// /v1/catalog and /v1/recommend endpoints come live, and completed jobs
	// already in the job database are backfilled on startup.  Empty
	// disables the catalog (the endpoints answer 400).
	CatalogDir string
	// Fabric, when non-nil, makes this daemon a fabric coordinator: the
	// /v1/fabric/* protocol is mounted on the same mux, and jobs
	// submitted with "fabric": true are distributed to leased nodes
	// instead of the local pool.  The caller constructs the coordinator
	// (cmd/steacd's -coordinator flag) so its checkpoint dir and TTL are
	// configured in one place.
	Fabric *fabric.Coordinator
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.Tenants == nil {
		c.Tenants = anonymousTenants()
	}
	return c
}

// Observability handles (always-live counters; see package obs).
var (
	obsRequests   = obs.GetCounter("serve.requests")
	obsAuthFails  = obs.GetCounter("serve.auth_failures")
	obsQuotaRejs  = obs.GetCounter("serve.quota_rejects")
	obsCacheHits  = obs.GetCounter("serve.cache_hits")
	obsCacheMiss  = obs.GetCounter("serve.cache_misses")
	obsRejects    = obs.GetCounter("serve.queue_rejects")
	obsQueueDepth = obs.GetGauge("serve.queue_depth")
	obsInflight   = obs.GetGauge("serve.inflight")
)

// job is one admitted request travelling from the HTTP handler to a pool
// worker and back.
type job struct {
	ctx  context.Context
	run  func(ctx context.Context) (interface{}, error)
	done chan jobResult
}

type jobResult struct {
	val interface{}
	err error
}

// Server is the daemon core, independent of the actual listener so tests
// drive it through httptest.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *lruCache
	queue    *fairQueue
	jobMgr   *jobManager
	catalog  *catalog.Store // nil without CatalogDir
	catErr   error          // deferred catalog.Open failure, surfaced per request
	workers  sync.WaitGroup
	pending  sync.WaitGroup // admitted jobs not yet answered
	inflight atomic.Int64
	draining atomic.Bool
	drained  sync.Once
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		cache: newLRU(cfg.CacheEntries),
		queue: newFairQueue(cfg.QueueDepth),
	}
	s.jobMgr = newJobManager(s.cfg.JobDir, s.cfg.MaxJobs, s.cfg.Workers)
	s.jobMgr.fabric = s.cfg.Fabric
	if s.cfg.CatalogDir != "" {
		s.catalog, s.catErr = catalog.Open(s.cfg.CatalogDir)
		if s.catErr == nil {
			s.jobMgr.ingest = s.ingestJobRecord
			s.backfillCatalog()
		}
	}
	if s.cfg.Fabric != nil {
		s.cfg.Fabric.Register(s.mux)
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.pattern, s.admit(rt))
	}
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	return s
}

// Handler exposes the daemon as an http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting work, checkpoints and cancels async campaign jobs
// (their in-flight shards are journaled before the job unwinds, so a
// restarted daemon resumes them), waits for every queued and in-flight
// synchronous job to finish (or ctx to expire), then stops the worker
// pool.  It is the SIGTERM path: call http.Server.Shutdown first so no new
// connections race the drain, then Drain.  Safe to call once; later calls
// return immediately.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if err := s.jobMgr.drain(ctx); err != nil {
		return err
	}
	finished := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	s.drained.Do(func() { s.queue.close() })
	s.workers.Wait()
	// Every producer is gone; release the catalog's and the job
	// database's append handles.
	if err := s.catalog.Close(); err != nil {
		return fmt.Errorf("serve: drain: close catalog: %w", err)
	}
	if err := s.jobMgr.db.close(); err != nil {
		return fmt.Errorf("serve: drain: close job db: %w", err)
	}
	return nil
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		obsQueueDepth.Set(int64(s.queue.len()))
		obsInflight.Set(s.inflight.Add(1))
		val, err := j.run(j.ctx)
		obsInflight.Set(s.inflight.Add(-1))
		j.done <- jobResult{val: val, err: err}
		s.pending.Done()
	}
}

// submit enqueues work on the tenant's fair-queue lane without blocking: a
// full lane is an immediate ErrQueueFull (admission control), a draining
// server an ErrDraining.
func (s *Server) submit(ctx context.Context, tn *tenantState, run func(context.Context) (interface{}, error)) (*job, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if tn == nil {
		tn = s.cfg.Tenants.anon
		if tn == nil {
			tn = s.cfg.Tenants.tenants[0]
		}
	}
	j := &job{ctx: ctx, run: run, done: make(chan jobResult, 1)}
	s.pending.Add(1)
	if err := s.queue.push(tn, j); err != nil {
		s.pending.Done()
		if errors.Is(err, ErrQueueFull) {
			obsRejects.Add(1)
			tn.rejects.Add(1)
		}
		return nil, err
	}
	obsQueueDepth.Set(int64(s.queue.len()))
	return j, nil
}

// route is one row of the v1 route table: the mux pattern, whether the
// route spends a rate-limit token, whether it is refused while draining
// before that token is spent, and the handler admission hands the
// authenticated tenant to.  A handler's error answers the v1 envelope.
type route struct {
	pattern   string
	throttled bool
	drainGate bool
	serve     func(w http.ResponseWriter, r *http.Request, tn *tenantState) error
}

// routes is the v1 API.  Compute, recommend and job submission spend a
// rate-limit token; catalog reads and job polls do not.  Job submission
// alone is refused while draining ahead of its token.
func (s *Server) routes() []route {
	return []route{
		{"POST /v1/flow", true, false, compute[FlowRequest](s, "flow")},
		{"POST /v1/sched", true, false, compute[SchedRequest](s, "sched")},
		{"POST /v1/memfault", true, false, compute[MemfaultRequest](s, "memfault")},
		{"POST /v1/xcheck", true, false, compute[XCheckRequest](s, "xcheck")},
		{"GET /v1/catalog", false, false, s.handleCatalogList},
		{"GET /v1/catalog/compare", false, false, s.handleCatalogCompare},
		{"GET /v1/catalog/{fingerprint}", false, false, s.handleCatalogGet},
		{"POST /v1/recommend", true, false, s.handleRecommend},
		{"POST /v1/jobs", true, true, s.handleJobSubmit},
		{"GET /v1/jobs/{id}", false, false, s.handleJobGet},
		{"DELETE /v1/jobs/{id}", false, false, s.handleJobCancel},
	}
}

// admit is the admission prelude of every v1 route, in order:
// authenticate, count the tenant's request, refuse a drain-gated route
// while draining, spend a rate-limit token on throttled routes, then run
// the route.  Body-reading routes decode next (decode, compute), so
// admission never spends work on a body from an unauthenticated or
// throttled caller.
func (s *Server) admit(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		obsRequests.Add(1)
		tn, err := s.cfg.Tenants.authenticate(r)
		if err != nil {
			obsAuthFails.Add(1)
			v1.WriteError(w, err)
			return
		}
		tn.reqs.Add(1)
		if rt.drainGate && s.draining.Load() {
			v1.WriteError(w, ErrDraining)
			return
		}
		if rt.throttled && !tn.allow() {
			obsQuotaRejs.Add(1)
			tn.rejects.Add(1)
			v1.WriteError(w, fmt.Errorf("%w: tenant %q rate limit (%g/s, burst %d)",
				ErrQuotaExceeded, tn.ID, tn.RatePerSec, tn.Burst))
			return
		}
		if err := rt.serve(w, r, tn); err != nil {
			v1.WriteError(w, err)
		}
	}
}

// decode is the bounded strict JSON decode (envelope.MaxBody) of the
// recommend and job-submit bodies; what names the body in the 400 message.
func decode(w http.ResponseWriter, r *http.Request, what string, v any) error {
	if err := v1.Decode(w, r, v); err != nil {
		return badRequestf("serve: bad %s: %v", what, err)
	}
	return nil
}

// runner is the common shape of every request type in requests.go.
type runner interface {
	run(ctx context.Context) (interface{}, error)
}

// response is the wire envelope: the memoized result plus whether it came
// from the cache.
type response struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// compute builds the handler of one synchronous endpoint — after
// admission, in order: decode (an empty body is the zero request), cache
// lookup, fair-queue admission, deadline, compute, memoize, catalog.
func compute[R runner](s *Server, endpoint string) func(http.ResponseWriter, *http.Request, *tenantState) error {
	return func(w http.ResponseWriter, r *http.Request, tn *tenantState) error {
		var req R
		if err := v1.Decode(w, r, &req); err != nil && err != io.EOF {
			return badRequestf("serve: bad request body: %v", err)
		}
		key, err := requestKey(endpoint, canonical(req))
		if err != nil {
			return badRequestf("serve: canonicalize request: %v", err)
		}
		if blob, ok := s.cache.get(key); ok {
			obsCacheHits.Add(1)
			writeResult(w, blob, true)
			return nil
		}
		obsCacheMiss.Add(1)

		timeout := s.cfg.DefaultTimeout
		if t := timeoutOf(req); t > 0 {
			timeout = t
		}
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()

		j, err := s.submit(ctx, tn, req.run)
		if err != nil {
			return err
		}
		res := <-j.done
		if res.err != nil {
			return res.err
		}
		blob, err := json.Marshal(res.val)
		if err != nil {
			return err
		}
		s.cache.put(key, blob)
		// First computation of this content address: catalog it.  Cache
		// hits above never re-ingest — the record already exists.
		if src, ok := any(req).(catalogSource); ok {
			s.catalogIngest(src.catalogRecords(key, tn.ID, res.val, blob))
		}
		writeResult(w, blob, false)
		return nil
	}
}

func isInfeasible(err error) bool { return errors.Is(err, sched.ErrInfeasible) }

func writeResult(w http.ResponseWriter, blob []byte, cached bool) {
	if cached {
		w.Header().Set("X-Cache", "HIT")
	} else {
		w.Header().Set("X-Cache", "MISS")
	}
	envelope.WriteJSON(w, http.StatusOK, response{Cached: cached, Result: blob})
}

// healthz answers 200 while serving and 503 once draining, so load
// balancers stop routing during shutdown.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// metrics exports every obs counter and gauge as "name value" text lines —
// the daemon's own serve.* metrics (including the per-tenant
// serve.tenant.<id>.* series) next to all engine counters — plus the
// cache size.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, m := range obs.Counters() {
		fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
	}
	for _, m := range obs.Gauges() {
		fmt.Fprintf(w, "%s %d\n", m.Name, m.Value)
	}
	fmt.Fprintf(w, "serve.cache_entries %d\n", s.cache.len())
	fmt.Fprintf(w, "serve.catalog_records %d\n", s.catalog.Len())
	fmt.Fprintf(w, "serve.draining %d\n", b2i(s.draining.Load()))
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
