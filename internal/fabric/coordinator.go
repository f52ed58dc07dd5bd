package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"steac/internal/campaign"
	"steac/internal/envelope"
)

// Config configures a Coordinator.
type Config struct {
	// Dir is the shared checkpoint root.  Each campaign lives in
	// Dir/<fingerprint[:16]> with the standard checkpoint layout
	// (MANIFEST.json + per-writer journals), so the directory is readable
	// by Inspect and resumable by a plain single-process Run.
	Dir string
	// TTL is the lease time-to-live; a lease not heartbeated within TTL
	// is stolen by the next claim.  0 means 15s.
	TTL time.Duration
	// LeaseMax caps shards per claim.  0 means 4.
	LeaseMax int
	// Clock overrides the lease clock for tests.  nil means time.Now.
	Clock func() time.Time
}

const (
	defaultTTL      = 15 * time.Second
	defaultLeaseMax = 4
)

// fabricCampaign is one tracked campaign: the authoritative plan, its
// lease table, and the lazily-prepared executor used only at merge time.
type fabricCampaign struct {
	plan    campaign.Plan
	dir     string
	tenant  string // first submitter's tenant id ("" pre-tenancy)
	table   *Table
	started time.Time

	mu     sync.Mutex // guards merge + the fields below
	done   bool
	report []byte
}

// Coordinator owns the lease tables and the shared checkpoint store for a
// set of campaigns.  It is safe for concurrent use and holds no state that
// cannot be rebuilt from Dir: New re-registers every campaign found on
// disk, marking journaled shards complete, so a coordinator restart only
// re-runs work that was genuinely in flight.
type Coordinator struct {
	cfg Config
	now func() time.Time

	mu        sync.Mutex
	campaigns map[string]*fabricCampaign // by full fingerprint
	short     map[string]string          // fingerprint[:16] -> full
}

// New builds a Coordinator over cfg.Dir, recovering every campaign already
// on disk.  A subdirectory without a readable manifest is skipped (it may
// be mid-create); a manifest whose kind is not registered is an error —
// the coordinator could not merge it.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fabric: coordinator needs a checkpoint dir")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = defaultTTL
	}
	if cfg.LeaseMax <= 0 {
		cfg.LeaseMax = defaultLeaseMax
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: create coordinator dir: %w", err)
	}
	c := &Coordinator{
		cfg:       cfg,
		now:       now,
		campaigns: map[string]*fabricCampaign{},
		short:     map[string]string{},
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("fabric: scan coordinator dir: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(cfg.Dir, ent.Name())
		if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
			continue
		}
		plan, loaded, _, err := campaign.LoadOutcomes(dir)
		if err != nil {
			return nil, fmt.Errorf("fabric: recover %s: %w", ent.Name(), err)
		}
		fc := c.register(plan, dir)
		for idx := range loaded {
			fc.table.MarkComplete(idx)
		}
		if fc.table.Done() {
			if err := c.merge(context.Background(), fc); err != nil && !errors.Is(err, ErrNotDone) {
				return nil, fmt.Errorf("fabric: recover %s: %w", ent.Name(), err)
			}
		}
	}
	return c, nil
}

// register tracks plan under the coordinator.  Callers must not hold c.mu.
func (c *Coordinator) register(plan campaign.Plan, dir string) *fabricCampaign {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc := c.campaigns[plan.Fingerprint]; fc != nil {
		return fc
	}
	fc := &fabricCampaign{
		plan:    plan,
		dir:     dir,
		table:   NewTable(plan.Shards, c.cfg.TTL, c.now),
		started: c.now(),
	}
	c.campaigns[plan.Fingerprint] = fc
	c.short[plan.Fingerprint[:16]] = plan.Fingerprint
	obsActive.Set(obsActive.Value() + 1)
	return fc
}

// lookup resolves a full or short (16-hex) fingerprint.
func (c *Coordinator) lookup(fp string) (*fabricCampaign, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if full, ok := c.short[fp]; ok {
		fp = full
	}
	if fc := c.campaigns[fp]; fc != nil {
		return fc, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownCampaign, fp)
}

// Submit registers a campaign: decode through the kind registry, plan it,
// and publish the checkpoint manifest under Dir.  Submission is idempotent
// by fingerprint — resubmitting a known campaign (even a finished one)
// returns its current info.  If the directory already holds journaled
// shards (a previous coordinator's work), they are recovered as complete.
func (c *Coordinator) Submit(ctx context.Context, req SubmitRequest) (CampaignInfo, error) {
	spec, err := campaign.Decode(req.Kind, req.Spec)
	if err != nil {
		return CampaignInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	plan, _, err := campaign.PlanCampaign(ctx, spec, req.ShardSize)
	if err != nil {
		return CampaignInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if fc, err := c.lookup(plan.Fingerprint); err == nil {
		return c.info(fc), nil
	}
	dir := filepath.Join(c.cfg.Dir, plan.Fingerprint[:16])
	plan, err = campaign.CreateStore(dir, plan)
	if err != nil {
		return CampaignInfo{}, err
	}
	fc := c.register(plan, dir)
	fc.mu.Lock()
	if fc.tenant == "" {
		fc.tenant = req.Tenant
	}
	fc.mu.Unlock()
	if _, loaded, _, err := campaign.LoadOutcomes(dir); err == nil {
		for idx := range loaded {
			fc.table.MarkComplete(idx)
		}
	}
	obsCampaigns.Add(1)
	return c.info(fc), nil
}

func (c *Coordinator) info(fc *fabricCampaign) CampaignInfo {
	state := "running"
	fc.mu.Lock()
	if fc.done {
		state = "done"
	}
	tenant := fc.tenant
	fc.mu.Unlock()
	return CampaignInfo{
		Fingerprint: fc.plan.Fingerprint, Kind: fc.plan.Kind, Spec: fc.plan.Spec,
		Units: fc.plan.Units, ShardSize: fc.plan.ShardSize, Shards: fc.plan.Shards,
		State: state, Tenant: tenant,
	}
}

// Campaigns lists every tracked campaign, oldest fingerprint first.
func (c *Coordinator) Campaigns() []CampaignInfo {
	c.mu.Lock()
	fps := make([]string, 0, len(c.campaigns))
	for fp := range c.campaigns {
		fps = append(fps, fp)
	}
	c.mu.Unlock()
	sort.Strings(fps)
	out := make([]CampaignInfo, 0, len(fps))
	for _, fp := range fps {
		if fc, err := c.lookup(fp); err == nil {
			out = append(out, c.info(fc))
		}
	}
	return out
}

// CampaignInfo returns the info for one campaign.
func (c *Coordinator) CampaignInfo(fp string) (CampaignInfo, error) {
	fc, err := c.lookup(fp)
	if err != nil {
		return CampaignInfo{}, err
	}
	return c.info(fc), nil
}

// Lease claims up to req.Max shards (capped by LeaseMax) for req.Node.
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	if req.Node == "" {
		return LeaseResponse{}, fmt.Errorf("%w: lease needs a node name", ErrBadRequest)
	}
	fc, err := c.lookup(req.Campaign)
	if err != nil {
		return LeaseResponse{}, err
	}
	max := req.Max
	if max <= 0 || max > c.cfg.LeaseMax {
		max = c.cfg.LeaseMax
	}
	resp := LeaseResponse{TTLMS: c.cfg.TTL.Milliseconds()}
	// Done means merged, not merely "every shard claimed complete": the
	// merge may find a claimed shard missing from the journals and
	// re-open the campaign, so nodes must keep polling until the report
	// actually exists.
	fc.mu.Lock()
	resp.Done = fc.done
	fc.mu.Unlock()
	if resp.Done {
		return resp, nil
	}
	for _, idx := range fc.table.Claim(req.Node, max) {
		lo, hi := fc.plan.Bounds(idx)
		resp.Leases = append(resp.Leases, WireLease{
			Shard: idx, Lo: lo, Hi: hi, Key: fc.plan.Key(idx),
		})
	}
	return resp, nil
}

// Heartbeat renews req.Node's leases.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	if req.Node == "" {
		return HeartbeatResponse{}, fmt.Errorf("%w: heartbeat needs a node name", ErrBadRequest)
	}
	fc, err := c.lookup(req.Campaign)
	if err != nil {
		return HeartbeatResponse{}, err
	}
	renewed, lost := fc.table.Heartbeat(req.Node, req.Shards)
	return HeartbeatResponse{Renewed: renewed, Lost: lost}, nil
}

// Complete records a journaled shard.  When the last shard completes, the
// coordinator merges: it re-scans every journal on disk and either
// assembles the final report or — if a claimed-complete shard is missing
// from the journals — re-leases the gap.
func (c *Coordinator) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	if req.Node == "" {
		return CompleteResponse{}, fmt.Errorf("%w: complete needs a node name", ErrBadRequest)
	}
	fc, err := c.lookup(req.Campaign)
	if err != nil {
		return CompleteResponse{}, err
	}
	already, err := fc.table.Complete(req.Node, req.Shard)
	if err != nil {
		return CompleteResponse{}, err
	}
	resp := CompleteResponse{Already: already}
	if fc.table.Done() {
		if err := c.merge(ctx, fc); err != nil {
			// Missing journal entries re-lease and the campaign keeps
			// running; any other merge failure is the caller's to see.
			if !errors.Is(err, ErrNotDone) {
				return CompleteResponse{}, err
			}
		}
	}
	fc.mu.Lock()
	resp.Done = fc.done
	fc.mu.Unlock()
	return resp, nil
}

// merge assembles the final report from the journals, trusting disk over
// the lease table: shards the table believes complete but the journals do
// not contain go back to pending.
func (c *Coordinator) merge(ctx context.Context, fc *fabricCampaign) error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.done {
		return nil
	}
	plan, loaded, _, err := campaign.LoadOutcomes(fc.dir)
	if err != nil {
		return err
	}
	if missing := campaign.MissingShards(plan, loaded); len(missing) > 0 {
		fc.table.ResetPending(missing)
		obsMergeMiss.Add(int64(len(missing)))
		return fmt.Errorf("%w: %d shards not journaled (first %d)",
			ErrNotDone, len(missing), missing[0])
	}
	spec, err := campaign.Decode(plan.Kind, plan.Spec)
	if err != nil {
		return err
	}
	_, exec, err := campaign.PlanCampaign(ctx, spec, plan.ShardSize)
	if err != nil {
		return err
	}
	report, err := campaign.AssembleReport(exec, plan, loaded)
	if err != nil {
		return err
	}
	raw, err := json.Marshal(report)
	if err != nil {
		return fmt.Errorf("fabric: marshal report: %w", err)
	}
	fc.report = raw
	fc.done = true
	obsCampaignsOK.Add(1)
	obsActive.Set(obsActive.Value() - 1)
	return nil
}

// Report returns the merged report JSON, or ErrNotDone while shards are
// still in flight.
func (c *Coordinator) Report(fp string) ([]byte, error) {
	fc, err := c.lookup(fp)
	if err != nil {
		return nil, err
	}
	// A campaign recovered complete from disk may not have merged yet;
	// merge lazily rather than waiting for a Complete that never comes.
	if fc.table.Done() {
		if err := c.merge(context.Background(), fc); err != nil {
			return nil, err
		}
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if !fc.done {
		return nil, fmt.Errorf("%w: %s", ErrNotDone, fc.plan.Fingerprint[:16])
	}
	return fc.report, nil
}

// Progress returns the fabric-wide progress of one campaign: shard
// counts from the lease table, per-node ledgers, and a rate-based ETA.
func (c *Coordinator) Progress(fp string) (Progress, error) {
	fc, err := c.lookup(fp)
	if err != nil {
		return Progress{}, err
	}
	snap := fc.table.Snapshot()
	fc.mu.Lock()
	done := fc.done
	fc.mu.Unlock()
	p := Progress{
		Fingerprint:    fc.plan.Fingerprint,
		Kind:           fc.plan.Kind,
		State:          "running",
		ShardsTotal:    snap.Shards,
		ShardsComplete: snap.Complete,
		ShardsLeased:   snap.Leased,
		ShardsPending:  snap.Pending,
		UnitsTotal:     fc.plan.Units,
		ElapsedMS:      c.now().Sub(fc.started).Milliseconds(),
	}
	if done {
		p.State = "done"
	}
	p.UnitsDone = unitsDone(fc.plan, snap.Complete)
	if p.ShardsComplete > 0 && p.ShardsComplete < p.ShardsTotal && p.ElapsedMS > 0 {
		perShard := float64(p.ElapsedMS) / float64(p.ShardsComplete)
		p.EtaMS = int64(perShard * float64(p.ShardsTotal-p.ShardsComplete))
	}
	for _, name := range sortedNodeNames(snap.Nodes) {
		p.Nodes = append(p.Nodes, snap.Nodes[name])
	}
	return p, nil
}

// unitsDone approximates completed units from completed shard count: every
// shard is ShardSize units except the final remainder shard.
func unitsDone(plan campaign.Plan, complete int) int {
	if complete >= plan.Shards {
		return plan.Units
	}
	done := complete * plan.ShardSize
	if done > plan.Units {
		done = plan.Units
	}
	return done
}

func sortedNodeNames(nodes map[string]NodeProgress) []string {
	names := make([]string, 0, len(nodes))
	for name := range nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// route is one row of the fabric route table: the mux pattern and the
// handler's result, answered as 200 JSON (a []byte verbatim) or, on
// error, as the typed envelope.
type route struct {
	pattern string
	serve   func(w http.ResponseWriter, r *http.Request) (any, error)
}

// routes is the /v1/fabric/* protocol.  The POST routes decode their body
// leniently under the shared 16 MiB cap.
func (c *Coordinator) routes() []route {
	fp := func(r *http.Request) string { return r.PathValue("fp") }
	return []route{
		{"POST /v1/fabric/campaigns", post("submit", c.Submit)},
		{"GET /v1/fabric/campaigns", func(http.ResponseWriter, *http.Request) (any, error) {
			return c.Campaigns(), nil
		}},
		{"GET /v1/fabric/campaigns/{fp}", func(_ http.ResponseWriter, r *http.Request) (any, error) {
			return c.CampaignInfo(fp(r))
		}},
		{"GET /v1/fabric/campaigns/{fp}/progress", func(_ http.ResponseWriter, r *http.Request) (any, error) {
			return c.Progress(fp(r))
		}},
		{"GET /v1/fabric/campaigns/{fp}/report", func(_ http.ResponseWriter, r *http.Request) (any, error) {
			return c.Report(fp(r))
		}},
		{"POST /v1/fabric/lease", post("lease", func(_ context.Context, req LeaseRequest) (LeaseResponse, error) {
			return c.Lease(req)
		})},
		{"POST /v1/fabric/heartbeat", post("heartbeat", func(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
			return c.Heartbeat(req)
		})},
		{"POST /v1/fabric/complete", post("complete", c.Complete)},
	}
}

// post adapts a call taking a decoded request body.
func post[Req, Resp any](what string, call func(context.Context, Req) (Resp, error)) func(http.ResponseWriter, *http.Request) (any, error) {
	return func(w http.ResponseWriter, r *http.Request) (any, error) {
		var req Req
		if err := protocol.Decode(w, r, &req); err != nil {
			return nil, fmt.Errorf("%w: decode %s: %v", ErrBadRequest, what, err)
		}
		return call(r.Context(), req)
	}
}

// Register mounts the /v1/fabric/* protocol on mux.
func (c *Coordinator) Register(mux *http.ServeMux) {
	for _, rt := range c.routes() {
		serve := rt.serve
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			v, err := serve(w, r)
			if err != nil {
				protocol.WriteError(w, err)
				return
			}
			if raw, ok := v.([]byte); ok {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				_, _ = w.Write(raw)
				return
			}
			envelope.WriteJSON(w, http.StatusOK, v)
		})
	}
}
