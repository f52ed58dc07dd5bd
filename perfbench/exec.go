package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"steac/internal/catalog"
	"steac/internal/recommend"
	"steac/internal/serve"
)

// result is the outcome of one op.
type result struct {
	kind  string
	ok    bool   // 2xx, and for jobs a final state of done
	code  string // why it failed: the v1 error code or the final job state
	lat   time.Duration
	out   []byte // canonical result bytes; runOps folds them into sum
	sum   [sha256.Size]byte
	check error // a failed output check
	polls int
	// cached marks a compute reply served from the memo cache.
	cached bool
}

func (r result) failed() bool { return !r.ok || r.check != nil }

// daemonRun executes ops against one daemon.
type daemonRun struct {
	d         *daemon
	fix       *manifest
	tr        *tracer
	pollEvery time.Duration
	// cold requires every compute response to be a cache miss (flow-sweep
	// sends only new content addresses).
	cold bool
}

// call is one HTTP round trip, traced as a serve.request span.
func (x *daemonRun) call(ctx context.Context, c *client, op, parent int, method, path string, body interface{}) (reply, error) {
	sp := x.tr.begin("serve.request", op, parent)
	defer x.tr.end(sp)
	return c.do(ctx, method, path, body)
}

func (x *daemonRun) exec(ctx context.Context, op Op) result {
	c := x.d.clients[op.Client]
	root := x.tr.begin("op."+op.Kind, op.ID, 0)
	defer x.tr.end(root)
	start := time.Now()
	res := result{kind: op.Kind}
	var r reply
	var err error
	switch {
	case op.Flow != nil:
		r, err = x.call(ctx, c, op.ID, root, http.MethodPost, "/v1/flow", op.Flow)
		if err == nil && r.ok() {
			res.out, res.cached, res.check = checkFlow(r.body, op.Flow, x.cold)
		}
	case op.Sched != nil:
		r, err = x.call(ctx, c, op.ID, root, http.MethodPost, "/v1/sched", op.Sched)
		if err == nil && r.ok() {
			res.out, res.check = checkSched(r.body, op.Sched, x.cold)
		}
	case op.Job != nil:
		return x.job(ctx, c, op, root, start)
	case op.Kind == "list":
		r, err = x.call(ctx, c, op.ID, root, http.MethodGet, "/v1/catalog"+queryString(op.Query, ""), nil)
		if err == nil && r.ok() {
			res.out, res.check = checkList(r.body, op.Query, c.tenant)
		}
	case op.Kind == "get":
		fps := x.fix.tenant(c.tenant).Fingerprints
		fp := fps[op.Pick%len(fps)]
		r, err = x.call(ctx, c, op.ID, root, http.MethodGet, "/v1/catalog/"+url.PathEscape(fp), nil)
		if err == nil && r.ok() {
			res.out, res.check = checkRecord(r.body, fp, c.tenant)
		}
	case op.Query != nil:
		r, err = x.call(ctx, c, op.ID, root, http.MethodGet, "/v1/catalog/compare"+queryString(op.Query, op.Format), nil)
		if err == nil && r.ok() {
			res.out, res.check = r.body, checkCompare(r.body, op.Format)
		}
	case op.Recommend != nil:
		r, err = x.call(ctx, c, op.ID, root, http.MethodPost, "/v1/recommend", op.Recommend)
		if err == nil && r.ok() {
			res.out, res.check = r.body, checkSuggestion(r.body)
		}
	default:
		res.check = fmt.Errorf("op %d: no request for kind %q", op.ID, op.Kind)
	}
	res.lat = time.Since(start)
	switch {
	case err != nil:
		res.code = "transport"
		res.check = err
	case !r.ok():
		res.code = r.code()
		res.out = []byte("error:" + res.code)
	default:
		res.ok = true
	}
	return res
}

// job submits a campaign and polls it to a terminal state.  Its latency
// runs from submit until the first poll that sees the final state.
func (x *daemonRun) job(ctx context.Context, c *client, op Op, root int, start time.Time) (res result) {
	res.kind = op.Kind
	defer func() { res.lat = time.Since(start) }()
	r, err := x.call(ctx, c, op.ID, root, http.MethodPost, "/v1/jobs", op.Job)
	if err != nil {
		res.code, res.check = "transport", err
		return res
	}
	if !r.ok() {
		res.code = r.code()
		res.out = []byte("error:" + res.code)
		return res
	}
	var st serve.JobStatus
	if err := json.Unmarshal(r.body, &st); err != nil {
		res.code, res.check = "bad_status", err
		return res
	}
	if st.State != "done" {
		wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		st, res.polls, err = c.waitJob(wctx, st.ID, x.pollEvery, x.tr, op.ID, root)
		cancel()
		if err != nil {
			res.code, res.check = "poll", err
			return res
		}
	}
	if st.State != "done" {
		res.code = st.State
		res.out = []byte("job:" + st.State)
		return res
	}
	res.ok = true
	res.out = st.Result
	res.check = checkReport(op.Job.Kind, st.Result)
	return res
}

func checkFlow(body []byte, req *serve.FlowRequest, cold bool) ([]byte, bool, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, false, fmt.Errorf("flow %s/%d: %w", req.Chip, req.Seed, err)
	}
	if cold && env.Cached {
		return env.Result, true, fmt.Errorf("flow %s/%d: cache hit on a new content address", req.Chip, req.Seed)
	}
	var fr serve.FlowResponse
	if err := json.Unmarshal(env.Result, &fr); err != nil {
		return env.Result, env.Cached, fmt.Errorf("flow %s/%d: %w", req.Chip, req.Seed, err)
	}
	if fr.Sessions < 1 || fr.ScheduleCycles <= 0 || len(fr.Cores) == 0 {
		return env.Result, env.Cached, fmt.Errorf("flow %s/%d: empty schedule %+v", req.Chip, req.Seed, fr)
	}
	if req.Chip == "dsc" && req.TestPins == 0 && fr.ScheduleCycles != dscCycles {
		return env.Result, env.Cached, fmt.Errorf("dsc flow: %d schedule cycles, want %d", fr.ScheduleCycles, dscCycles)
	}
	return env.Result, env.Cached, nil
}

func checkSched(body []byte, req *serve.SchedRequest, cold bool) ([]byte, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("sched %s/%d: %w", req.Chip, req.Seed, err)
	}
	if cold && env.Cached {
		return env.Result, fmt.Errorf("sched %s/%d: cache hit on a new content address", req.Chip, req.Seed)
	}
	var sr serve.SchedResponse
	if err := json.Unmarshal(env.Result, &sr); err != nil {
		return env.Result, fmt.Errorf("sched %s/%d: %w", req.Chip, req.Seed, err)
	}
	if len(sr.Points) != len(req.TestPins) {
		return env.Result, fmt.Errorf("sched %s/%d: %d points for %d budgets", req.Chip, req.Seed, len(sr.Points), len(req.TestPins))
	}
	for i, p := range sr.Points {
		if p.TestPins != req.TestPins[i] || (!p.Infeasible && (p.Cycles <= 0 || p.Sessions < 1)) {
			return env.Result, fmt.Errorf("sched %s/%d: bad point %+v", req.Chip, req.Seed, p)
		}
	}
	return env.Result, nil
}

// stripCreated drops the ingest timestamp, the one field of a record that
// is not a function of the inputs.
func stripCreated(recs []catalog.Record) {
	for i := range recs {
		recs[i].CreatedUnixMS = 0
	}
}

func checkList(body []byte, q *catalog.Query, tenant string) ([]byte, error) {
	var cr serve.CatalogResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, fmt.Errorf("list: %w", err)
	}
	stripCreated(cr.Records)
	out, err := json.Marshal(cr)
	if err != nil {
		return nil, err
	}
	if len(cr.Records) == 0 || len(cr.Records) > q.Limit || cr.Total < len(cr.Records) {
		return out, fmt.Errorf("list %+v: %d of %d records", *q, len(cr.Records), cr.Total)
	}
	for _, rec := range cr.Records {
		if rec.Tenant != tenant || rec.Kind != q.Kind || rec.Scenario != q.Scenario {
			return out, fmt.Errorf("list %+v: foreign record %s (%s/%s/%s)", *q, rec.Fingerprint, rec.Tenant, rec.Kind, rec.Scenario)
		}
	}
	return out, nil
}

func checkRecord(body []byte, fp, tenant string) ([]byte, error) {
	var rec catalog.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return nil, fmt.Errorf("get %s: %w", fp, err)
	}
	rec.CreatedUnixMS = 0
	out, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if rec.Fingerprint != fp || rec.Tenant != tenant {
		return out, fmt.Errorf("get %s: got %s of tenant %s", fp, rec.Fingerprint, rec.Tenant)
	}
	return out, nil
}

func checkCompare(body []byte, format string) error {
	var want string
	switch format {
	case "csv":
		want = "fingerprint,kind,scenario"
	case "html":
		want = "<table"
	}
	if !bytes.Contains(body, []byte(want)) || bytes.Count(body, []byte("\n")) < 3 {
		return fmt.Errorf("compare %s: %d bytes without %q", format, len(body), want)
	}
	return nil
}

func checkSuggestion(body []byte) error {
	var sug recommend.Suggestion
	if err := json.Unmarshal(body, &sug); err != nil {
		return fmt.Errorf("recommend: %w", err)
	}
	if sug.TamWidth <= 0 || len(sug.Basis) == 0 {
		return fmt.Errorf("recommend: empty suggestion %+v", sug)
	}
	return nil
}

// checkReport requires a campaign report that simulated faults.
func checkReport(kind string, raw json.RawMessage) error {
	var rep struct{ Total, Detected int }
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("%s report: %w", kind, err)
	}
	if rep.Total <= 0 || rep.Detected <= 0 || rep.Detected > rep.Total {
		return fmt.Errorf("%s report: %d of %d faults detected", kind, rep.Detected, rep.Total)
	}
	return nil
}

var errCheck = errors.New("output check failed")

// firstCheck returns the first failed output check among results.
func firstCheck(rs []result) error {
	for _, r := range rs {
		if r.check != nil {
			return fmt.Errorf("%w: %s: %v", errCheck, r.kind, r.check)
		}
	}
	return nil
}

// kindOrder lists op kinds in first-seen order.
func kindOrder(rs []result) []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range rs {
		if !seen[r.kind] {
			seen[r.kind] = true
			out = append(out, r.kind)
		}
	}
	return out
}

// failureCodes summarizes failures of one kind as "code×n" pairs.
func failureCodes(rs []result, kind string) string {
	counts := map[string]int{}
	var order []string
	for _, r := range rs {
		if r.kind != kind || !r.failed() {
			continue
		}
		code := r.code
		if code == "" {
			code = "check"
		}
		if counts[code] == 0 {
			order = append(order, code)
		}
		counts[code]++
	}
	parts := make([]string, len(order))
	for i, c := range order {
		parts[i] = fmt.Sprintf("%s×%d", c, counts[c])
	}
	return strings.Join(parts, " ")
}
