package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"steac/internal/catalog"
	"steac/internal/envelope"
	"steac/internal/recommend"
)

// Client is the typed Go client for the daemon's v1 API — the reference
// consumer of the error-envelope contract.  Every non-2xx response is
// decoded from the {"error","code"} envelope and surfaced as the matching
// package sentinel wrapped around the server's message, so callers branch
// with errors.Is(err, serve.ErrQuotaExceeded) instead of string-matching
// status text:
//
//	c := &serve.Client{Base: "http://127.0.0.1:8741", APIKey: key}
//	res, cached, err := c.Flow(ctx, serve.FlowRequest{Chip: "dsc"})
//	if errors.Is(err, serve.ErrUnauthorized) { ... }
type Client struct {
	// Base is the daemon root, e.g. "http://127.0.0.1:8741".
	Base string
	// APIKey authenticates every request (Authorization: Bearer).  Empty
	// is fine against an anonymous-mode daemon.
	APIKey string
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

// do runs one request on the v1 surface and decodes the response into out
// (ignored when nil), reconstructing typed errors from the wire envelope.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	return v1.Do(ctx, envelope.Call{HTTP: c.HTTP, Method: method, URL: c.Base + path,
		APIKey: c.APIKey, In: in, Out: out})
}

// endpoint runs one synchronous compute request, returning the decoded
// result and whether it was served from the daemon's memo cache.
func endpoint[Req any, Resp any](ctx context.Context, c *Client, path string, req Req) (*Resp, bool, error) {
	var env response
	if err := c.do(ctx, http.MethodPost, path, req, &env); err != nil {
		return nil, false, err
	}
	out := new(Resp)
	if err := json.Unmarshal(env.Result, out); err != nil {
		return nil, false, fmt.Errorf("serve: client: bad %s result: %w", path, err)
	}
	return out, env.Cached, nil
}

// Flow runs POST /v1/flow.
func (c *Client) Flow(ctx context.Context, req FlowRequest) (*FlowResponse, bool, error) {
	return endpoint[FlowRequest, FlowResponse](ctx, c, "/v1/flow", req)
}

// Sched runs POST /v1/sched.
func (c *Client) Sched(ctx context.Context, req SchedRequest) (*SchedResponse, bool, error) {
	return endpoint[SchedRequest, SchedResponse](ctx, c, "/v1/sched", req)
}

// Memfault runs POST /v1/memfault.
func (c *Client) Memfault(ctx context.Context, req MemfaultRequest) (*MemfaultResponse, bool, error) {
	return endpoint[MemfaultRequest, MemfaultResponse](ctx, c, "/v1/memfault", req)
}

// XCheck runs POST /v1/xcheck.
func (c *Client) XCheck(ctx context.Context, req XCheckRequest) (*XCheckResponse, bool, error) {
	return endpoint[XCheckRequest, XCheckResponse](ctx, c, "/v1/xcheck", req)
}

// SubmitJob runs POST /v1/jobs: submit (or rejoin) an async campaign job.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Job runs GET /v1/jobs/{id}.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// CancelJob runs DELETE /v1/jobs/{id}.
func (c *Client) CancelJob(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// catalogQueryString encodes the shared catalog listing filters.  Tenant
// is deliberately ignored: the daemon scopes every catalog request to the
// authenticated identity.
func catalogQueryString(q catalog.Query) string {
	v := url.Values{}
	if q.Scenario != "" {
		v.Set("scenario", q.Scenario)
	}
	if q.Kind != "" {
		v.Set("kind", q.Kind)
	}
	if q.MinCoverage > 0 {
		v.Set("min_coverage", strconv.FormatFloat(q.MinCoverage, 'g', -1, 64))
	}
	if q.MaxCoverage > 0 {
		v.Set("max_coverage", strconv.FormatFloat(q.MaxCoverage, 'g', -1, 64))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if len(v) == 0 {
		return ""
	}
	return "?" + v.Encode()
}

// Catalog runs GET /v1/catalog: list the caller's catalog records.
func (c *Client) Catalog(ctx context.Context, q catalog.Query) (*CatalogResponse, error) {
	var out CatalogResponse
	err := c.do(ctx, http.MethodGet, "/v1/catalog"+catalogQueryString(q), nil, &out)
	return &out, err
}

// CatalogRecord runs GET /v1/catalog/{fingerprint}.
func (c *Client) CatalogRecord(ctx context.Context, fingerprint string) (*catalog.Record, error) {
	var rec catalog.Record
	err := c.do(ctx, http.MethodGet, "/v1/catalog/"+url.PathEscape(fingerprint), nil, &rec)
	return &rec, err
}

// CatalogCompare runs GET /v1/catalog/compare and returns the rendered
// table verbatim.  format is "json", "csv" or "html" ("" = json).
func (c *Client) CatalogCompare(ctx context.Context, format string, q catalog.Query) ([]byte, error) {
	path := "/v1/catalog/compare" + catalogQueryString(q)
	if format != "" {
		sep := "?"
		if len(path) > len("/v1/catalog/compare") {
			sep = "&"
		}
		path += sep + "format=" + url.QueryEscape(format)
	}
	var blob []byte
	err := c.do(ctx, http.MethodGet, path, nil, &blob)
	return blob, err
}

// Recommend runs POST /v1/recommend.
func (c *Client) Recommend(ctx context.Context, req RecommendRequest) (*recommend.Suggestion, error) {
	var sug recommend.Suggestion
	err := c.do(ctx, http.MethodPost, "/v1/recommend", req, &sug)
	return &sug, err
}

// WaitJob polls GET /v1/jobs/{id} every interval (0 = 250ms) until the job
// reaches a terminal state or ctx expires.  onStatus, when non-nil, sees
// every polled status — progress displays hook in here.  A job that ends
// failed or canceled is returned with a nil error; deciding whether that
// is a failure belongs to the caller.
func (c *Client) WaitJob(ctx context.Context, id string, interval time.Duration, onStatus func(JobStatus)) (JobStatus, error) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if onStatus != nil {
			onStatus(st)
		}
		switch st.State {
		case jobDone, jobFailed, jobCanceled, jobCheckpointed:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ticker.C:
		}
	}
}
