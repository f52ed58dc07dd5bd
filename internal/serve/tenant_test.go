package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The multi-tenant contract tests: identity gates every endpoint with the
// typed 401 envelope, token buckets and job quotas answer 429, the fair
// queue keeps a light tenant's latency bounded while a greedy one floods,
// jobs are visible only to their owner, and the durable job database
// preserves ownership across a daemon restart.  serve.Client is used
// throughout as the reference consumer of the error envelope.

// newTenantServer builds a daemon with the given tenant rows and returns
// the registry (for lane/tenant introspection) plus the live server.
func newTenantServer(t *testing.T, cfg Config, rows []Tenant) (*TenantSet, *Server, string) {
	t.Helper()
	set, err := NewTenantSet(rows)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tenants = set
	s, ts := newTestServer(t, cfg)
	return set, s, ts.URL
}

// memfaultReq is a cheap compute request; distinct seeds make distinct
// cache keys, so every call really travels the admission pipeline.
func memfaultReq(seed int64) MemfaultRequest {
	return MemfaultRequest{Algorithms: []string{"March C-"}, Words: 8, Bits: 2, Seed: seed}
}

func TestTenantAuthEnvelope(t *testing.T) {
	_, _, base := newTenantServer(t, Config{Workers: 2}, []Tenant{
		{ID: "alpha", Key: "ka"}, {ID: "beta", Key: "kb"},
	})

	// Typed sentinel through the client: missing and unknown keys are
	// ErrUnauthorized, a valid key computes.
	ctx := context.Background()
	for _, key := range []string{"", "wrong"} {
		c := &Client{Base: base, APIKey: key}
		if _, _, err := c.Memfault(ctx, memfaultReq(1)); !errors.Is(err, ErrUnauthorized) {
			t.Fatalf("key %q: err = %v, want ErrUnauthorized", key, err)
		}
	}
	c := &Client{Base: base, APIKey: "ka"}
	if _, _, err := c.Memfault(ctx, memfaultReq(1)); err != nil {
		t.Fatalf("valid key rejected: %v", err)
	}

	// Raw wire shape: 401 with the v1 envelope and the stable code.
	resp, blob := post(t, base+"/v1/memfault", `{"words":8,"bits":2}`)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated POST = %d, want 401: %s", resp.StatusCode, blob)
	}
	var we wireError
	if err := json.Unmarshal(blob, &we); err != nil || we.Code != "unauthorized" || we.Error == "" {
		t.Fatalf("401 envelope = %s (err %v), want code \"unauthorized\"", blob, err)
	}
}

func TestTenantRateLimitEnvelope(t *testing.T) {
	// Burst 2 with a rate too slow to refill during the test: the third
	// request must be a typed 429.
	_, _, base := newTenantServer(t, Config{Workers: 2}, []Tenant{
		{ID: "alpha", Key: "ka", RatePerSec: 1e-9, Burst: 2},
		{ID: "beta", Key: "kb"},
	})
	ctx := context.Background()
	c := &Client{Base: base, APIKey: "ka"}
	for i := int64(0); i < 2; i++ {
		if _, _, err := c.Memfault(ctx, memfaultReq(i)); err != nil {
			t.Fatalf("request %d within burst: %v", i, err)
		}
	}
	if _, _, err := c.Memfault(ctx, memfaultReq(9)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("past burst: err = %v, want ErrQuotaExceeded", err)
	}

	// Raw wire shape: 429, quota_exceeded, Retry-After hint.
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/memfault", strings.NewReader(`{"words":8,"bits":2}`))
	req.Header.Set("Authorization", "Bearer ka")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited POST = %d, want 429: %s", resp.StatusCode, buf.Bytes())
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After hint")
	}
	var we wireError
	if err := json.Unmarshal(buf.Bytes(), &we); err != nil || we.Code != "quota_exceeded" {
		t.Fatalf("429 envelope = %s, want code \"quota_exceeded\"", buf.Bytes())
	}

	// The other tenant is untouched by alpha's empty bucket.
	cb := &Client{Base: base, APIKey: "kb"}
	if _, _, err := cb.Memfault(ctx, memfaultReq(1)); err != nil {
		t.Fatalf("beta throttled by alpha's bucket: %v", err)
	}
}

func TestTenantJobQuotaBoundary(t *testing.T) {
	dir := t.TempDir()
	_, s, base := newTenantServer(t, Config{Workers: 2, JobDir: dir, MaxJobs: 2}, []Tenant{
		{ID: "alpha", Key: "ka", MaxJobs: 1},
		{ID: "beta", Key: "kb"},
	})
	defer func() {
		// Settle the jobs still running at test end before TempDir cleanup.
		drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(drainCtx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	ctx := context.Background()
	ca := &Client{Base: base, APIKey: "ka"}

	first, err := ca.SubmitJob(ctx, JobRequest{Kind: "memfault", Spec: json.RawMessage(slowJobSpecJSON), ShardSize: 4})
	if err != nil {
		t.Fatalf("first job: %v", err)
	}
	if first.Tenant != "alpha" {
		t.Fatalf("job tenant = %q, want alpha", first.Tenant)
	}

	// A second, distinct spec exceeds MaxJobs: typed 429.
	other := JobRequest{Kind: "memfault", Spec: json.RawMessage(jobSpecJSON)}
	if _, err := ca.SubmitJob(ctx, other); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit: err = %v, want ErrQuotaExceeded", err)
	}
	// Resubmitting the live spec idempotently joins the existing job — no
	// quota charge.
	again, err := ca.SubmitJob(ctx, JobRequest{Kind: "memfault", Spec: json.RawMessage(slowJobSpecJSON), ShardSize: 4})
	if err != nil || again.ID != first.ID {
		t.Fatalf("rejoin = %v (err %v), want job %s", again.ID, err, first.ID)
	}
	// Beta has its own allowance.
	cb := &Client{Base: base, APIKey: "kb"}
	if _, err := cb.SubmitJob(ctx, other); err != nil {
		t.Fatalf("beta blocked by alpha's quota: %v", err)
	}

	// Freeing the slot (cancel, wait terminal) re-opens the quota.
	if _, err := ca.CancelJob(ctx, first.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, err := ca.WaitJob(waitCtx, first.ID, 20*time.Millisecond, nil); err != nil {
		t.Fatalf("wait canceled job: %v", err)
	}
	if _, err := ca.SubmitJob(ctx, other); err != nil {
		t.Fatalf("submit after slot freed: %v", err)
	}
}

// TestTenantStarvation pins the DRR guarantee deterministically: with one
// worker parked and a greedy tenant's lane already holding four jobs, a
// light tenant's request admitted afterwards is served second (after at
// most one greedy job — the greedy lane's weight), not fifth.
func TestTenantStarvation(t *testing.T) {
	set, s, base := newTenantServer(t, Config{Workers: 1, QueueDepth: 4}, []Tenant{
		{ID: "greedy", Key: "kg"},
		{ID: "light", Key: "kl"},
	})
	tnG := set.lookup("greedy")

	// Park the single worker on a greedy-tenant job.
	release, blocked := blockWorker(t, s)
	defer release()

	// Fill greedy's lane; its own fifth push is the one rejected.
	var greedyDone atomic.Int32
	for i := 0; i < 4; i++ {
		_, err := s.submit(context.Background(), tnG, func(context.Context) (interface{}, error) {
			time.Sleep(100 * time.Millisecond)
			greedyDone.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatalf("greedy job %d: %v", i, err)
		}
	}
	if _, err := s.submit(context.Background(), tnG, func(context.Context) (interface{}, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("greedy overflow = %v, want ErrQueueFull", err)
	}

	// The light tenant's request still enters its own (empty) lane.
	type lightResult struct {
		err     error
		elapsed time.Duration
	}
	lightc := make(chan lightResult, 1)
	go func() {
		c := &Client{Base: base, APIKey: "kl"}
		start := time.Now()
		_, _, err := c.Memfault(context.Background(), memfaultReq(42))
		lightc <- lightResult{err: err, elapsed: time.Since(start)}
	}()
	// Wait until the light job is actually queued before releasing the
	// worker, so the DRR ordering below is fully determined.
	deadline := time.Now().Add(5 * time.Second)
	for set.lookup("light").queueDepth.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("light request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	release()
	<-blocked
	res := <-lightc
	if res.err != nil {
		t.Fatalf("light tenant request failed under flood: %v", res.err)
	}
	// DRR with weight 1 serves at most one greedy job before the light
	// lane's turn; under FIFO all four (400ms of sleeps) would precede it.
	if n := greedyDone.Load(); n > 2 {
		t.Fatalf("light request served after %d greedy jobs, want <= 2 (starved)", n)
	}
	if res.elapsed > 30*time.Second {
		t.Fatalf("light latency %v, want bounded", res.elapsed)
	}
}

// TestTenantFloodFairness is the concurrent starvation check (run with
// -race): many goroutines flooding as one tenant while another issues a
// serial stream, every one of which must succeed — per-lane bounds mean
// the flood can only ever fill its own lane.
func TestTenantFloodFairness(t *testing.T) {
	_, _, base := newTenantServer(t, Config{Workers: 2, QueueDepth: 2}, []Tenant{
		{ID: "greedy", Key: "kg"},
		{ID: "light", Key: "kl"},
	})
	ctx := context.Background()

	stop := make(chan struct{})
	var flood sync.WaitGroup
	var rejected atomic.Int32
	for g := 0; g < 4; g++ {
		flood.Add(1)
		go func(g int) {
			defer flood.Done()
			c := &Client{Base: base, APIKey: "kg"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := c.Memfault(ctx, memfaultReq(int64(1000+g*1000+i)))
				if errors.Is(err, ErrQueueFull) {
					rejected.Add(1)
				} else if err != nil {
					t.Errorf("greedy request: %v", err)
					return
				}
			}
		}(g)
	}

	c := &Client{Base: base, APIKey: "kl"}
	for i := int64(0); i < 10; i++ {
		if _, _, err := c.Memfault(ctx, memfaultReq(i)); err != nil {
			t.Errorf("light request %d failed under flood: %v", i, err)
		}
	}
	close(stop)
	flood.Wait()
	t.Logf("flood saw %d queue-full rejections (its own lane), light saw none", rejected.Load())
}

// TestTenantJobIsolation: jobs are invisible across tenants (GET and
// DELETE answer the same 404 as a nonexistent id), and two tenants
// submitting the identical spec get distinct jobs.
func TestTenantJobIsolation(t *testing.T) {
	dir := t.TempDir()
	_, _, base := newTenantServer(t, Config{Workers: 2, JobDir: dir, MaxJobs: 2}, []Tenant{
		{ID: "alpha", Key: "ka"}, {ID: "beta", Key: "kb"},
	})
	ctx := context.Background()
	ca := &Client{Base: base, APIKey: "ka"}
	cb := &Client{Base: base, APIKey: "kb"}

	req := JobRequest{Kind: "memfault", Spec: json.RawMessage(jobSpecJSON), ShardSize: 4}
	ja, err := ca.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("alpha submit: %v", err)
	}
	if _, err := cb.Job(ctx, ja.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("beta GET alpha's job = %v, want ErrNotFound", err)
	}
	if _, err := cb.CancelJob(ctx, ja.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("beta DELETE alpha's job = %v, want ErrNotFound", err)
	}
	jb, err := cb.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("beta submit: %v", err)
	}
	if jb.ID == ja.ID {
		t.Fatalf("identical spec shares job id %s across tenants", ja.ID)
	}
	if ja.Fingerprint != jb.Fingerprint {
		t.Fatalf("same spec, different fingerprints: %s vs %s", ja.Fingerprint, jb.Fingerprint)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	for _, w := range []struct {
		c  *Client
		id string
	}{{ca, ja.ID}, {cb, jb.ID}} {
		st, err := w.c.WaitJob(waitCtx, w.id, 20*time.Millisecond, nil)
		if err != nil || st.State != jobDone {
			t.Fatalf("job %s: state %s, err %v", w.id, st.State, err)
		}
		if !bytes.Equal(st.Result, goldenJobReport(t)) {
			t.Fatalf("job %s result diverges from golden report", w.id)
		}
	}
}

// TestTenantRestartOwnership: the durable job database carries tenant
// ownership and job state across a daemon restart — the owner polls the
// same id and resumes, the other tenant still sees 404.
func TestTenantRestartOwnership(t *testing.T) {
	dir := t.TempDir()
	rows := []Tenant{{ID: "alpha", Key: "ka"}, {ID: "beta", Key: "kb"}}
	ctx := context.Background()

	set1, err := NewTenantSet(rows)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 2, JobDir: dir, MaxJobs: 1, Tenants: set1})
	srv1 := httptest.NewServer(s1.Handler()) // closed mid-test: restart scenario
	ca := &Client{Base: srv1.URL, APIKey: "ka"}

	req := JobRequest{Kind: "memfault", Spec: json.RawMessage(slowJobSpecJSON), ShardSize: 4}
	st, err := ca.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	id := st.ID

	// Let it make checkpoint progress, then drain: in-flight shards are
	// journaled, the state lands in the fsync'd database.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, err := ca.Job(ctx, id)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if cur.ShardsDone >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no shard progress")
		}
		time.Sleep(10 * time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	srv1.Close()

	// Restart: fresh process state, same JobDir, same tenant rows.
	set2, err := NewTenantSet(rows)
	if err != nil {
		t.Fatal(err)
	}
	_, srv2 := newTestServer(t, Config{Workers: 2, JobDir: dir, MaxJobs: 1, Tenants: set2})
	ca2 := &Client{Base: srv2.URL, APIKey: "ka"}
	cb2 := &Client{Base: srv2.URL, APIKey: "kb"}

	got, err := ca2.Job(ctx, id)
	if err != nil {
		t.Fatalf("owner poll after restart: %v", err)
	}
	if got.Tenant != "alpha" {
		t.Fatalf("restarted job tenant = %q, want alpha", got.Tenant)
	}
	if got.State != jobCheckpointed {
		t.Fatalf("restarted job state = %q, want checkpointed", got.State)
	}
	if got.ShardsDone < 1 {
		t.Fatalf("restart lost checkpoint progress: %+v", got)
	}
	if _, err := cb2.Job(ctx, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("beta sees alpha's job after restart: %v", err)
	}

	// Re-POST of the same spec converges on the same id and resumes from
	// the journal to the exact golden report.
	re, err := ca2.SubmitJob(ctx, req)
	if err != nil {
		t.Fatalf("resubmit after restart: %v", err)
	}
	if re.ID != id {
		t.Fatalf("resubmit id %s, want %s", re.ID, id)
	}
	waitCtx, cancelWait := context.WithTimeout(ctx, 60*time.Second)
	defer cancelWait()
	fin, err := ca2.WaitJob(waitCtx, id, 20*time.Millisecond, nil)
	if err != nil || fin.State != jobDone {
		t.Fatalf("resumed job: state %s, err %v", fin.State, err)
	}
	if fin.Resumed == 0 {
		t.Error("resumed job replayed no shards from the journal")
	}
	if !bytes.Equal(fin.Result, goldenJobReportFor(t, slowJobSpecJSON)) {
		t.Fatal("resumed result diverges from golden report")
	}
}

func TestTenantMetricsExported(t *testing.T) {
	_, _, base := newTenantServer(t, Config{Workers: 2}, []Tenant{
		{ID: "metrics-a", Key: "ka", RatePerSec: 1e-9, Burst: 1},
	})
	ctx := context.Background()
	c := &Client{Base: base, APIKey: "ka"}
	if _, _, err := c.Memfault(ctx, memfaultReq(7)); err != nil {
		t.Fatalf("request: %v", err)
	}
	if _, _, err := c.Memfault(ctx, memfaultReq(8)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second request = %v, want ErrQuotaExceeded", err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	for _, metric := range []string{
		"serve.tenant.metrics-a.requests",
		"serve.tenant.metrics-a.rejects",
		"serve.tenant.metrics-a.queue_depth",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
	if !metricAtLeast(body, "serve.tenant.metrics-a.requests", 2) {
		t.Errorf("tenant request counter below 2:\n%s", grepMetrics(body, "metrics-a"))
	}
	if !metricAtLeast(body, "serve.tenant.metrics-a.rejects", 1) {
		t.Errorf("tenant reject counter below 1:\n%s", grepMetrics(body, "metrics-a"))
	}
}

func metricAtLeast(body, name string, min int64) bool {
	for _, line := range strings.Split(body, "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v >= min
		}
	}
	return false
}

func grepMetrics(body, substr string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestDrainingEnvelope: after Drain, new work is a typed 503.
func TestDrainingEnvelope(t *testing.T) {
	_, s, base := newTenantServer(t, Config{Workers: 1}, []Tenant{{ID: "alpha", Key: "ka"}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	c := &Client{Base: base, APIKey: "ka"}
	if _, _, err := c.Memfault(context.Background(), memfaultReq(3)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain request = %v, want ErrDraining", err)
	}
	if _, err := c.SubmitJob(context.Background(), JobRequest{Kind: "memfault", Spec: json.RawMessage(jobSpecJSON)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain job submit = %v, want ErrDraining", err)
	}
}
