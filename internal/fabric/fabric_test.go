package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"steac/internal/campaign"
	"steac/internal/envelope"
	"steac/internal/memory"
)

// testSpec is the standard small campaign: the generated fault universe of
// a 64x4 single-port RAM under March C- — the same workload the campaign
// battery uses, big enough for dozens of shards.
func testSpec() *campaign.CoverageSpec {
	return &campaign.CoverageSpec{
		Algorithm: "March C-",
		Config:    memory.Config{Name: "t0", Words: 64, Bits: 4, Kind: memory.SinglePort},
		AllFaults: true,
	}
}

// goldenReport runs spec uninterrupted in a single process and returns the
// marshaled report — the byte-identity yardstick every fabric run is
// measured against.
func goldenReport(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	res, err := campaign.Run(context.Background(), spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	raw, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatalf("marshal golden report: %v", err)
	}
	return raw
}

// cluster is a coordinator behind a real HTTP listener whose handler can
// be atomically swapped — the restart chaos uses that to replace the
// coordinator (rebuilt from disk) without changing the URL nodes dial.
type cluster struct {
	cfg     Config
	coord   *Coordinator
	srv     *httptest.Server
	handler atomic.Pointer[http.ServeMux]
}

func newCluster(t *testing.T, cfg Config) *cluster {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("New coordinator: %v", err)
	}
	c := &cluster{cfg: cfg, coord: coord}
	mux := http.NewServeMux()
	coord.Register(mux)
	c.handler.Store(mux)
	c.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.handler.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(c.srv.Close)
	return c
}

// restart replaces the coordinator with a fresh one recovered from the
// same checkpoint dir; in-flight leases are forgotten, journaled shards
// are not.
func (c *cluster) restart(t *testing.T) {
	t.Helper()
	coord, err := New(c.cfg)
	if err != nil {
		t.Fatalf("restart coordinator: %v", err)
	}
	c.coord = coord
	mux := http.NewServeMux()
	coord.Register(mux)
	c.handler.Store(mux)
}

func (c *cluster) client() *Client { return &Client{Base: c.srv.URL} }

func (c *cluster) node(id string, workers int) *Node {
	return &Node{
		ID: id, Client: c.client(), Dir: c.cfg.Dir,
		Workers: workers, Poll: 5 * time.Millisecond,
	}
}

// submit registers spec and returns its info.
func (c *cluster) submit(t *testing.T, spec campaign.Spec, shardSize int) CampaignInfo {
	t.Helper()
	payload, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.client().Submit(context.Background(), SubmitRequest{
		Kind: spec.Kind(), Spec: payload, ShardSize: shardSize,
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return info
}

// awaitReport polls until the campaign reports done and returns the merged
// report bytes.
func (c *cluster) awaitReport(t *testing.T, fp string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		raw, err := c.client().Report(context.Background(), fp)
		if err == nil {
			return raw
		}
		if !errors.Is(err, ErrNotDone) {
			t.Fatalf("report: %v", err)
		}
		if time.Now().After(deadline) {
			p, _ := c.client().Progress(context.Background(), fp)
			t.Fatalf("campaign never completed; progress %+v", p)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFabricSingleNodeMatchesGolden(t *testing.T) {
	spec := testSpec()
	golden := goldenReport(t, spec)
	c := newCluster(t, Config{TTL: 2 * time.Second, LeaseMax: 3})
	info := c.submit(t, spec, 256)
	if info.State != "running" {
		t.Fatalf("fresh campaign state %q, want running", info.State)
	}

	node := c.node("solo", 2)
	if err := node.RunCampaign(context.Background(), info.Fingerprint); err != nil {
		t.Fatalf("node run: %v", err)
	}
	got := c.awaitReport(t, info.Fingerprint)
	if !bytes.Equal(got, golden) {
		t.Fatalf("fabric report differs from single-process golden:\n got  %s\n want %s", got, golden)
	}

	// Resubmission of a finished campaign is idempotent and reports done.
	again := c.submit(t, spec, 256)
	if again.Fingerprint != info.Fingerprint || again.State != "done" {
		t.Fatalf("resubmit = %q/%s, want done/%s", again.State, again.Fingerprint[:12], info.Fingerprint[:12])
	}
}

// TestFabricStressInProcessNodes is the -race stress satellite: {2,4,8}
// concurrent in-process nodes with varying local worker counts, merged
// report byte-identical to the golden for every cluster size
// (worker-invariance, fabric edition).
func TestFabricStressInProcessNodes(t *testing.T) {
	spec := testSpec()
	golden := goldenReport(t, spec)
	for _, nodes := range []int{2, 4, 8} {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes%d", nodes), func(t *testing.T) {
			c := newCluster(t, Config{TTL: 2 * time.Second, LeaseMax: 2})
			info := c.submit(t, spec, 128)
			var wg sync.WaitGroup
			errs := make(chan error, nodes)
			for i := 0; i < nodes; i++ {
				node := c.node(fmt.Sprintf("n%d", i), 1+i%3)
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := node.RunCampaign(context.Background(), info.Fingerprint); err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("node error: %v", err)
			}
			got := c.awaitReport(t, info.Fingerprint)
			if !bytes.Equal(got, golden) {
				t.Fatalf("%d-node report differs from golden", nodes)
			}
			// Every shard completion is accounted to exactly one node.
			p, err := c.client().Progress(context.Background(), info.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for _, np := range p.Nodes {
				sum += np.Completed
			}
			if sum != p.ShardsTotal || p.ShardsComplete != p.ShardsTotal {
				t.Fatalf("per-node completions sum to %d over %d shards (%+v)", sum, p.ShardsTotal, p.Nodes)
			}
		})
	}
}

// TestFabricTypedErrorsOverWire pins the sentinel round-trip: every
// protocol failure surfaces as the package sentinel through errors.Is
// after an HTTP hop.
func TestFabricTypedErrorsOverWire(t *testing.T) {
	c := newCluster(t, Config{TTL: time.Second})
	ctx := context.Background()
	cl := c.client()

	if _, err := cl.CampaignInfo(ctx, "feedfacefeedface"); !errors.Is(err, ErrUnknownCampaign) {
		t.Errorf("unknown campaign info error = %v, want ErrUnknownCampaign", err)
	}
	if _, err := cl.Lease(ctx, LeaseRequest{Node: "n", Campaign: "feedfacefeedface"}); !errors.Is(err, ErrUnknownCampaign) {
		t.Errorf("unknown campaign lease error = %v, want ErrUnknownCampaign", err)
	}
	if _, err := cl.Submit(ctx, SubmitRequest{Kind: "no-such-kind", Spec: json.RawMessage(`{}`)}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("bad kind submit error = %v, want ErrBadRequest", err)
	}

	info := c.submit(t, testSpec(), 256)
	if _, err := cl.Report(ctx, info.Fingerprint); !errors.Is(err, ErrNotDone) {
		t.Errorf("early report error = %v, want ErrNotDone", err)
	}
	if _, err := cl.Lease(ctx, LeaseRequest{Campaign: info.Fingerprint}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("nameless lease error = %v, want ErrBadRequest", err)
	}
	if _, err := cl.Complete(ctx, CompleteRequest{Node: "n", Campaign: info.Fingerprint, Shard: 10_000}); !errors.Is(err, ErrUnknownShard) {
		t.Errorf("out-of-range complete error = %v, want ErrUnknownShard", err)
	}
}

// TestFabricCoordinatorRecoversFromDisk kills the coordinator (builds a
// fresh one over the same dir) between two halves of a campaign: journaled
// shards stay complete, unfinished ones are re-leased, and the final
// report still matches the golden.
func TestFabricCoordinatorRecoversFromDisk(t *testing.T) {
	spec := testSpec()
	golden := goldenReport(t, spec)
	c := newCluster(t, Config{TTL: 500 * time.Millisecond, LeaseMax: 2})
	info := c.submit(t, spec, 128)

	// First half: run a node until a few shards are journaled, then stop
	// it by canceling its context from the shard callback.
	ctx, cancel := context.WithCancel(context.Background())
	half := c.node("first", 1)
	var done int32
	half.OnShard = func(string, int) {
		if atomic.AddInt32(&done, 1) >= 3 {
			cancel()
		}
	}
	_ = half.RunCampaign(ctx, info.Fingerprint)
	if atomic.LoadInt32(&done) < 3 {
		t.Fatalf("first node journaled %d shards before stopping", done)
	}

	c.restart(t)

	// The recovered coordinator must know the campaign and its completed
	// shards without resubmission.
	p, err := c.client().Progress(context.Background(), info.Fingerprint)
	if err != nil {
		t.Fatalf("progress after restart: %v", err)
	}
	if p.ShardsComplete < 3 {
		t.Fatalf("restart lost journaled shards: %+v", p)
	}
	if p.ShardsComplete == p.ShardsTotal {
		t.Fatalf("campaign finished in the first half; nothing left to prove")
	}

	second := c.node("second", 2)
	if err := second.RunCampaign(context.Background(), info.Fingerprint); err != nil {
		t.Fatalf("second node: %v", err)
	}
	got := c.awaitReport(t, info.Fingerprint)
	if !bytes.Equal(got, golden) {
		t.Fatal("report after coordinator restart differs from golden")
	}
}

// TestFabricSpecMismatch pins ErrSpecMismatch end-to-end: a coordinator
// whose advertised fingerprint disagrees with the spec it hands out (a
// version-skewed or lying coordinator) is refused before the node
// simulates anything.
func TestFabricSpecMismatch(t *testing.T) {
	spec := testSpec()
	payload, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := campaign.PlanCampaign(context.Background(), spec, 256)
	if err != nil {
		t.Fatal(err)
	}
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		envelope.WriteJSON(w, http.StatusOK, CampaignInfo{
			Fingerprint: "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef",
			Kind:        spec.Kind(), Spec: payload,
			Units: plan.Units, ShardSize: plan.ShardSize, Shards: plan.Shards,
			State: "running",
		})
	}))
	defer lying.Close()
	node := &Node{ID: "n", Client: &Client{Base: lying.URL}, Dir: t.TempDir(), Workers: 1}
	err = node.RunCampaign(context.Background(), plan.Fingerprint)
	if !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("skewed coordinator error = %v, want ErrSpecMismatch", err)
	}
}

// TestFabricNodeInvalidWriter pins that a node ID unusable as a journal
// writer name fails loudly instead of writing somewhere surprising.
func TestFabricNodeInvalidWriter(t *testing.T) {
	c := newCluster(t, Config{TTL: time.Second})
	info := c.submit(t, testSpec(), 256)
	node := c.node("../evil", 1)
	err := node.RunCampaign(context.Background(), info.Fingerprint)
	if err == nil {
		t.Fatal("path-traversal writer name accepted")
	}
}
