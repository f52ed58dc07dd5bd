package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"steac/internal/campaign"
	"steac/internal/envelope"
	"steac/internal/par"
)

// Client is a typed HTTP client for the /v1/fabric/* protocol.  Non-2xx
// responses are decoded back into the package sentinels, so errors.Is
// works the same against a remote coordinator as against a local one.
type Client struct {
	// Base is the coordinator base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP overrides the http.Client; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	return protocol.Do(ctx, envelope.Call{HTTP: c.HTTP, Method: method, URL: c.Base + path, In: in, Out: out})
}

// Submit registers a campaign with the coordinator.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (CampaignInfo, error) {
	var info CampaignInfo
	err := c.do(ctx, http.MethodPost, "/v1/fabric/campaigns", req, &info)
	return info, err
}

// Campaigns lists the coordinator's campaigns.
func (c *Client) Campaigns(ctx context.Context) ([]CampaignInfo, error) {
	var out []CampaignInfo
	err := c.do(ctx, http.MethodGet, "/v1/fabric/campaigns", nil, &out)
	return out, err
}

// CampaignInfo fetches one campaign by (full or short) fingerprint.
func (c *Client) CampaignInfo(ctx context.Context, fp string) (CampaignInfo, error) {
	var info CampaignInfo
	err := c.do(ctx, http.MethodGet, "/v1/fabric/campaigns/"+url.PathEscape(fp), nil, &info)
	return info, err
}

// Progress fetches the fabric-wide progress of one campaign.
func (c *Client) Progress(ctx context.Context, fp string) (Progress, error) {
	var p Progress
	err := c.do(ctx, http.MethodGet, "/v1/fabric/campaigns/"+url.PathEscape(fp)+"/progress", nil, &p)
	return p, err
}

// Report fetches the merged report JSON; ErrNotDone until the campaign
// completes.
func (c *Client) Report(ctx context.Context, fp string) ([]byte, error) {
	var raw []byte
	err := c.do(ctx, http.MethodGet, "/v1/fabric/campaigns/"+url.PathEscape(fp)+"/report", nil, &raw)
	return raw, err
}

// Lease claims shards.
func (c *Client) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/fabric/lease", req, &resp)
	return resp, err
}

// Heartbeat renews leases.
func (c *Client) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.do(ctx, http.MethodPost, "/v1/fabric/heartbeat", req, &resp)
	return resp, err
}

// Complete reports one journaled shard.
func (c *Client) Complete(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	var resp CompleteResponse
	err := c.do(ctx, http.MethodPost, "/v1/fabric/complete", req, &resp)
	return resp, err
}

// Node is one fabric worker process: it leases shards from a coordinator,
// simulates them on a local pool, journals outcomes into the shared
// checkpoint store under its own writer name, and acknowledges them.
type Node struct {
	// ID is the node's name — its lease identity and its journal writer
	// name, so it must satisfy the writer-name rules ([A-Za-z0-9._-]).
	ID string
	// Client reaches the coordinator.
	Client *Client
	// Dir is the checkpoint root shared with the coordinator (campaigns
	// live in Dir/<fingerprint[:16]>).
	Dir string
	// Workers is the local simulation pool size, resolved per campaign by
	// par.Workers (0 = GOMAXPROCS, never more than the campaign's shards).
	Workers int
	// LeaseMax caps shards requested per claim (0 = coordinator default).
	LeaseMax int
	// Poll is the idle wait between claims when no work was granted
	// (0 = 50ms).
	Poll time.Duration

	// Test hooks — all optional.
	// ShardDelay pauses each worker for the duration before simulating a
	// shard, widening chaos-injection windows.
	ShardDelay time.Duration
	// StallHeartbeat, when non-nil, runs before every heartbeat; sleeping
	// in it simulates a partitioned or GC-stalled node.
	StallHeartbeat func()
	// OnShard observes every shard the node journals and acknowledges.
	OnShard func(fingerprint string, shard int)
}

func (n *Node) poll() time.Duration {
	if n.Poll > 0 {
		return n.Poll
	}
	return 50 * time.Millisecond
}

// retry runs call until it succeeds, returns a typed protocol error, or
// ctx fires; transient transport failures (a coordinator mid-restart) back
// off and try again.
func (n *Node) retry(ctx context.Context, call func() error) error {
	backoff := 10 * time.Millisecond
	for {
		err := call()
		if err == nil || isProtocolError(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
}

// isProtocolError reports whether err is one of the protocol sentinels, a
// definitive answer; anything else (transport failures, 500 internal) is
// worth retrying.
func isProtocolError(err error) bool { return protocol.For(err).Err != nil }

// heldLeases tracks the shards a node currently owes heartbeats for.
type heldLeases struct {
	mu     sync.Mutex
	shards map[int]struct{}
}

func (h *heldLeases) add(idx int)    { h.mu.Lock(); h.shards[idx] = struct{}{}; h.mu.Unlock() }
func (h *heldLeases) remove(idx int) { h.mu.Lock(); delete(h.shards, idx); h.mu.Unlock() }
func (h *heldLeases) list() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.shards))
	for idx := range h.shards {
		out = append(out, idx)
	}
	return out
}

// RunCampaign works one campaign to completion (or until ctx fires): plan
// it locally from the coordinator's spec, verify the fingerprints agree,
// open the shared store as writer n.ID, then claim/simulate/journal/ack
// until the coordinator reports the campaign done.
func (n *Node) RunCampaign(ctx context.Context, fp string) error {
	if n.ID == "" {
		return fmt.Errorf("%w: node needs an ID", ErrBadRequest)
	}
	var info CampaignInfo
	err := n.retry(ctx, func() (e error) {
		info, e = n.Client.CampaignInfo(ctx, fp)
		return e
	})
	if err != nil {
		return err
	}
	spec, err := campaign.Decode(info.Kind, info.Spec)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSpecMismatch, err)
	}
	plan, exec, err := campaign.PlanCampaign(ctx, spec, info.ShardSize)
	if err != nil {
		return err
	}
	if plan.Fingerprint != info.Fingerprint {
		return fmt.Errorf("%w: local %s.. vs coordinator %s..",
			ErrSpecMismatch, plan.Fingerprint[:12], info.Fingerprint[:12])
	}
	store, err := campaign.OpenStore(filepath.Join(n.Dir, plan.Fingerprint[:16]), plan, n.ID)
	if err != nil {
		return err
	}
	defer store.Close()
	plan = store.Plan() // manifest geometry is authoritative

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	held := &heldLeases{shards: map[int]struct{}{}}
	leases := make(chan WireLease)
	workers := par.Workers(n.Workers, plan.Shards)
	errs := make(chan error, workers+1)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.workLoop(runCtx, exec, plan, store, held, leases); err != nil {
				select {
				case errs <- err:
				default:
				}
				cancel()
			}
		}()
	}

	// Heartbeat every TTL/3 once the first lease reveals the TTL.
	var hbOnce sync.Once
	startHeartbeat := func(ttl time.Duration) {
		hbOnce.Do(func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.heartbeatLoop(runCtx, plan.Fingerprint, ttl, held)
			}()
		})
	}

	claimErr := func() error {
		defer close(leases)
		for {
			var resp LeaseResponse
			err := n.retry(runCtx, func() (e error) {
				resp, e = n.Client.Lease(runCtx, LeaseRequest{
					Node: n.ID, Campaign: plan.Fingerprint, Max: n.LeaseMax,
				})
				return e
			})
			if err != nil {
				return err
			}
			if ttl := time.Duration(resp.TTLMS) * time.Millisecond; ttl > 0 {
				startHeartbeat(ttl)
			}
			if resp.Done {
				return nil
			}
			if len(resp.Leases) == 0 {
				select {
				case <-runCtx.Done():
					return runCtx.Err()
				case <-time.After(n.poll()):
				}
				continue
			}
			for _, lease := range resp.Leases {
				held.add(lease.Shard)
				select {
				case leases <- lease:
				case <-runCtx.Done():
					return runCtx.Err()
				}
			}
		}
	}()
	cancel()
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	if claimErr != nil && !errors.Is(claimErr, context.Canceled) {
		return claimErr
	}
	return ctx.Err()
}

// workLoop simulates leases from the channel: validate the shard key
// against the local plan, simulate, journal (fsync), then acknowledge.
func (n *Node) workLoop(ctx context.Context, exec campaign.Executor, plan campaign.Plan,
	store *campaign.Store, held *heldLeases, leases <-chan WireLease) error {
	var worker campaign.Worker
	for {
		var lease WireLease
		var ok bool
		select {
		case <-ctx.Done():
			return nil
		case lease, ok = <-leases:
			if !ok {
				return nil
			}
		}
		if lease.Key != plan.Key(lease.Shard) {
			held.remove(lease.Shard)
			return fmt.Errorf("%w: shard %d key %s.. vs local %s..",
				ErrSpecMismatch, lease.Shard, lease.Key[:12], plan.Key(lease.Shard)[:12])
		}
		if n.ShardDelay > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(n.ShardDelay):
			}
		}
		if worker == nil {
			w, err := exec.NewWorker()
			if err != nil {
				return err
			}
			worker = w
		}
		lo, hi := plan.Bounds(lease.Shard)
		out := make([]int64, hi-lo)
		if err := worker.Run(ctx, lo, hi, out); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		// Durability order: fsync the outcome into our journal before the
		// coordinator hears about it, so every acknowledged shard
		// survives a SIGKILL.
		if err := store.Append(lease.Shard, out); err != nil {
			return err
		}
		err := n.retry(ctx, func() error {
			_, e := n.Client.Complete(ctx, CompleteRequest{
				Node: n.ID, Campaign: plan.Fingerprint, Shard: lease.Shard,
			})
			return e
		})
		held.remove(lease.Shard)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		obsNodeShards.Add(1)
		if n.OnShard != nil {
			n.OnShard(plan.Fingerprint, lease.Shard)
		}
	}
}

// heartbeatLoop renews the node's held leases every ttl/3.  Lost leases
// are dropped from the held set; the worker holding one may still finish
// and journal it — completion is idempotent and the outcome deterministic,
// so a stolen-and-still-completed shard is benign.
func (n *Node) heartbeatLoop(ctx context.Context, fp string, ttl time.Duration, held *heldLeases) {
	every := ttl / 3
	if every <= 0 {
		every = time.Millisecond
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		if n.StallHeartbeat != nil {
			n.StallHeartbeat()
		}
		shards := held.list()
		if len(shards) == 0 {
			continue
		}
		resp, err := n.Client.Heartbeat(ctx, HeartbeatRequest{
			Node: n.ID, Campaign: fp, Shards: shards,
		})
		if err != nil {
			continue // transient; the next tick retries
		}
		for _, idx := range resp.Lost {
			held.remove(idx)
			obsNodeLost.Add(1)
		}
	}
}

// Run is daemon mode: poll the coordinator's campaign list and work every
// running campaign until ctx fires.  Used by `steacd -join`.
func (n *Node) Run(ctx context.Context) error {
	for {
		infos, err := n.Client.Campaigns(ctx)
		if err == nil {
			for _, info := range infos {
				if info.State != "running" {
					continue
				}
				if err := n.RunCampaign(ctx, info.Fingerprint); err != nil && ctx.Err() == nil {
					return err
				}
				if ctx.Err() != nil {
					return ctx.Err()
				}
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(n.poll() * 4):
		}
	}
}
