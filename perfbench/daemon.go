package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"time"

	"steac/internal/catalog"
	"steac/internal/serve"
)

// daemon is one in-process steacd on a loopback listener, with its pool and
// engine workers at their defaults, serving a state directory.
type daemon struct {
	srv     *serve.Server
	ts      *httptest.Server
	clients []*client
}

// startDaemon restarts steacd on dir (which holds catalog/ and jobs/).
func startDaemon(dir string, tenants []serve.Tenant) (*daemon, error) {
	ts, err := serve.NewTenantSet(tenants)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{
		Tenants:    ts,
		JobDir:     dir + "/jobs",
		CatalogDir: dir + "/catalog",
	})
	d := &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	for _, t := range tenants {
		d.clients = append(d.clients, &client{base: d.ts.URL, tenant: t.ID, key: t.Key, hc: hc})
	}
	return d, nil
}

// stop closes the listener and drains the daemon, which closes its stores.
func (d *daemon) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return d.srv.Drain(ctx)
}

// client is one closed-loop caller, authenticated as one tenant.
type client struct {
	base, tenant, key string
	hc                *http.Client
}

// reply is one HTTP response, fully read.
type reply struct {
	status int
	body   []byte
}

func (r reply) ok() bool { return r.status/100 == 2 }

// code returns the v1 error code of a non-2xx reply.
func (r reply) code() string {
	var env struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(r.body, &env) == nil && env.Code != "" {
		return env.Code
	}
	return "http_" + strconv.Itoa(r.status)
}

// do sends one request and reads the whole response.
func (c *client) do(ctx context.Context, method, path string, body interface{}) (reply, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return reply{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: blob}, nil
}

// queryString renders catalog listing filters the way steacd parses them.
func queryString(q *catalog.Query, format string) string {
	v := url.Values{}
	if q.Scenario != "" {
		v.Set("scenario", q.Scenario)
	}
	if q.Kind != "" {
		v.Set("kind", q.Kind)
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if format != "" {
		v.Set("format", format)
	}
	return "?" + v.Encode()
}

// envelope is the synchronous compute response wrapper.
type envelope struct {
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// errJobPending is returned when a polled job never reached a terminal
// state before the deadline.
var errJobPending = errors.New("job still running at deadline")

// waitJob polls GET /v1/jobs/{id} every interval until the job is
// terminal, returning the final status and the number of polls.  Each
// poll is a serve.poll span under parent.
func (c *client) waitJob(ctx context.Context, id string, interval time.Duration, tr *tracer, op, parent int) (serve.JobStatus, int, error) {
	polls := 0
	for {
		sp := tr.begin("serve.poll", op, parent)
		r, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
		tr.end(sp)
		polls++
		if err != nil {
			return serve.JobStatus{}, polls, err
		}
		if !r.ok() {
			return serve.JobStatus{}, polls, fmt.Errorf("poll job %s: %s", id, r.code())
		}
		var st serve.JobStatus
		if err := json.Unmarshal(r.body, &st); err != nil {
			return st, polls, fmt.Errorf("poll job %s: %w", id, err)
		}
		switch st.State {
		case "done", "failed", "canceled", "checkpointed":
			return st, polls, nil
		}
		select {
		case <-ctx.Done():
			return st, polls, errJobPending
		case <-time.After(interval):
		}
	}
}
