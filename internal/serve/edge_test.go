package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"steac/internal/envelope"
)

// The HTTP edge tests: every v1 route runs one admission prelude
// (authenticate, count, rate-limit where throttled, bounded decode), every
// error answers one envelope, and the client reverses the error table.

// v1RouteRows is the route capability table: one row per registered v1
// route.  throttled rows spend a rate-limit token; body rows decode a JSON
// request body.
var v1RouteRows = []struct {
	pattern   string
	throttled bool
	body      bool
}{
	{"POST /v1/flow", true, true},
	{"POST /v1/sched", true, true},
	{"POST /v1/memfault", true, true},
	{"POST /v1/xcheck", true, true},
	{"GET /v1/catalog", false, false},
	{"GET /v1/catalog/compare", false, false},
	{"GET /v1/catalog/{fingerprint}", false, false},
	{"POST /v1/recommend", true, true},
	{"POST /v1/jobs", true, true},
	{"GET /v1/jobs/{id}", false, false},
	{"DELETE /v1/jobs/{id}", false, false},
}

// edgeRequest sends body to the concrete form of a route pattern.
func edgeRequest(t *testing.T, base, pattern, key string, body io.Reader) (*http.Response, envelope.Error) {
	t.Helper()
	method, path, _ := strings.Cut(pattern, " ")
	path = strings.NewReplacer("{fingerprint}", "feedface", "{id}", "feedfacefeedface").Replace(path)
	req, err := http.NewRequest(method, base+path, body)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var we envelope.Error
	if resp.StatusCode/100 != 2 {
		if err := json.Unmarshal(blob, &we); err != nil || we.Code == "" {
			t.Fatalf("%s: %d without an envelope: %s", pattern, resp.StatusCode, blob)
		}
	}
	return resp, we
}

func TestV1RouteCapabilities(t *testing.T) {
	// Every tenant gets a one-token bucket that never refills; each row
	// spends its own tenant's token.
	var rows []Tenant
	for i := range v1RouteRows {
		rows = append(rows, Tenant{ID: "t" + strconv.Itoa(i), Key: "k" + strconv.Itoa(i), RatePerSec: 1e-9, Burst: 1})
	}
	_, s, base := newTenantServer(t, Config{Workers: 1, JobDir: t.TempDir(), CatalogDir: t.TempDir()}, rows)
	t.Cleanup(func() { _ = s.Drain(context.Background()) })

	registered := map[string]bool{}
	for _, rt := range s.routes() {
		registered[rt.pattern] = rt.throttled
	}
	if len(registered) != len(v1RouteRows) {
		t.Fatalf("%d routes registered, capability table has %d rows", len(registered), len(v1RouteRows))
	}
	for i, row := range v1RouteRows {
		throttled, ok := registered[row.pattern]
		if !ok || throttled != row.throttled {
			t.Fatalf("%s: registered %v (throttled %v), table says throttled %v", row.pattern, ok, throttled, row.throttled)
		}
		key := "k" + strconv.Itoa(i)

		resp, we := edgeRequest(t, base, row.pattern, "", nil)
		if resp.StatusCode != http.StatusUnauthorized || we.Code != "unauthorized" {
			t.Errorf("%s without a key: %d %q, want 401 unauthorized", row.pattern, resp.StatusCode, we.Code)
		}

		// A malformed body is a 400 on body rows and ignored elsewhere
		// (the GETs answer 200 or 404 on an empty catalog and job set).
		for attempt := 0; attempt < 2; attempt++ {
			resp, we = edgeRequest(t, base, row.pattern, key, strings.NewReader("not json"))
			switch {
			case attempt == 1 && row.throttled:
				if resp.StatusCode != http.StatusTooManyRequests || we.Code != "quota_exceeded" || resp.Header.Get("Retry-After") == "" {
					t.Errorf("%s past the burst: %d %q (Retry-After %q), want 429 quota_exceeded with Retry-After",
						row.pattern, resp.StatusCode, we.Code, resp.Header.Get("Retry-After"))
				}
			case row.body:
				if resp.StatusCode != http.StatusBadRequest || we.Code != "bad_request" {
					t.Errorf("%s with a malformed body: %d %q, want 400 bad_request", row.pattern, resp.StatusCode, we.Code)
				}
			case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound:
				t.Errorf("%s (attempt %d): %d %q, want 200 or 404", row.pattern, attempt, resp.StatusCode, we.Code)
			}
		}
	}
}

// TestV1BodyCap sends MaxBody+1 bytes to every v1 POST route: each refuses
// the whole body with a 400 naming the limit, before any compute.  A body
// of exactly MaxBody bytes still decodes.
func TestV1BodyCap(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobDir: t.TempDir(), CatalogDir: t.TempDir()})
	t.Cleanup(func() { _ = s.Drain(context.Background()) })
	padded := func(n int) io.Reader {
		b := bytes.Repeat([]byte{' '}, n)
		copy(b, "{}")
		return bytes.NewReader(b)
	}
	for _, row := range v1RouteRows {
		if !row.body {
			continue
		}
		resp, we := edgeRequest(t, ts.URL, row.pattern, "", padded(envelope.MaxBody+1))
		if resp.StatusCode != http.StatusBadRequest || we.Code != "bad_request" || !strings.Contains(we.Error, "16 MiB") {
			t.Errorf("%s with a %d-byte body: %d %+v, want 400 bad_request naming the 16 MiB limit",
				row.pattern, envelope.MaxBody+1, resp.StatusCode, we)
		}
	}
	resp, we := edgeRequest(t, ts.URL, "POST /v1/sched", "", padded(envelope.MaxBody))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(we.Error, "sweep list is empty") {
		t.Errorf("sched with a %d-byte body: %d %+v, want the empty-sweep 400", envelope.MaxBody, resp.StatusCode, we)
	}
}

// TestV1AdmissionOrder pins the two per-route steps that sit between
// admission and decode: a job submission is refused while draining before
// its rate-limit token is spent (so retried submits during a drain answer
// 503, never 429), and recommend reports a missing catalog ahead of its
// body.
func TestV1AdmissionOrder(t *testing.T) {
	_, s, base := newTenantServer(t, Config{Workers: 1, JobDir: t.TempDir()},
		[]Tenant{{ID: "t", Key: "k", RatePerSec: 1e-9, Burst: 1}})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		resp, we := edgeRequest(t, base, "POST /v1/jobs", "k", strings.NewReader("not json"))
		if resp.StatusCode != http.StatusServiceUnavailable || we.Code != "draining" {
			t.Errorf("job submit %d while draining: %d %q, want 503 draining", attempt, resp.StatusCode, we.Code)
		}
	}

	_, s, base = newTenantServer(t, Config{Workers: 1}, []Tenant{{ID: "t", Key: "k"}})
	t.Cleanup(func() { _ = s.Drain(context.Background()) })
	_, we := edgeRequest(t, base, "POST /v1/recommend", "k", strings.NewReader("not json"))
	if !strings.Contains(we.Error, "without a catalog") {
		t.Errorf("recommend without a catalog, malformed body: %+v, want the no-catalog 400", we)
	}
}

// TestV1ErrorTableRoundTrip writes every error of every v1 table row (and
// an unmatched one) through the envelope and decodes it with the client:
// the status and code are the row's, the client error matches the row's
// sentinel under errors.Is, and only 429s carry Retry-After.
func TestV1ErrorTableRoundTrip(t *testing.T) {
	type probe struct {
		row envelope.Code
		err error
	}
	var probes []probe
	for _, row := range v1.Codes {
		for _, e := range append([]error{row.Err}, row.Also...) {
			probes = append(probes, probe{row, fmt.Errorf("%w: detail", e)})
		}
	}
	probes = append(probes, probe{envelope.Internal, errors.New("boom")})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(r.PathValue("id"))
		v1.WriteError(w, probes[i].err)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	c := &Client{Base: ts.URL}
	for i, p := range probes {
		resp, we := edgeRequest(t, ts.URL, "GET /v1/jobs/"+strconv.Itoa(i), "", nil)
		if resp.StatusCode != p.row.Status || we.Code != p.row.Name || we.Error != p.err.Error() {
			t.Errorf("%v: %d %+v, want %d %q", p.err, resp.StatusCode, we, p.row.Status, p.row.Name)
		}
		if got := resp.Header.Get("Retry-After") != ""; got != (p.row.Status == http.StatusTooManyRequests) {
			t.Errorf("%v: Retry-After present = %v on a %d", p.err, got, p.row.Status)
		}
		_, err := c.Job(context.Background(), strconv.Itoa(i))
		if p.row.Err != nil && !errors.Is(err, p.row.Err) {
			t.Errorf("%v: client error %v does not match %v", p.err, err, p.row.Err)
		}
		if p.row.Err == nil && (v1.For(err).Err != nil || !strings.Contains(err.Error(), "boom (internal)")) {
			t.Errorf("%v: client error %v, want a plain internal error", p.err, err)
		}
	}
}

// TestRequestKeyGolden pins the memo-cache key hex of one exemplar request
// per endpoint (the fully populated endpointCases bodies) and one minimal
// request each.  Catalog record fingerprints, sched sweep sub-fingerprints
// and every cached response are addressed by these keys, so a change in
// field order, tags or the tuning-field zeroing re-addresses all of them.
func TestRequestKeyGolden(t *testing.T) {
	golden := map[string]string{
		"flow":     "30c2a1fe568fa3b1667d0c2ddf28a4b4242a9ebf320b4d8236b5392ab863d463",
		"sched":    "3fcd84986e6c107275101b6ea348dfb21791e63f93a36081372cb3274e8afec4",
		"memfault": "5a556e83c8ae834dab1cc611e37150a7ca18f80a1c3af08585ba0b99b3870106",
		"xcheck":   "9f349573f4563cac4e524bf580a89fd4f035c75e5a8e5a503214cb9a2b428ccd",
	}
	for _, c := range endpointCases {
		if got := keyForBody(t, c.endpoint, c.fresh, []byte(c.body)); got != golden[c.endpoint] {
			t.Errorf("%s exemplar key = %s, want %s", c.endpoint, got, golden[c.endpoint])
		}
	}
	for _, c := range []struct {
		endpoint, body, want string
		fresh                func() runner
	}{
		{"flow", `{"chip":"dsc"}`, "8d5326fd31540f5c4c770fe3c9447b18fa9ddd621ead91e43db48dcc92788b02",
			func() runner { return &FlowRequest{} }},
		{"sched", `{"test_pins":[26]}`, "86732b7acbad491b6c7d9a3eb72a541d16de43fd5abfa88ebdff8ce00b45d6c2",
			func() runner { return &SchedRequest{} }},
		{"memfault", `{"words":8,"bits":2,"algorithms":["March C-"]}`, "ec06c542c9d31ff8b386f1e424c219ae3f73302f3ad5f6cfd302edcfa4c2d262",
			func() runner { return &MemfaultRequest{} }},
		{"xcheck", `{"kind":"controller"}`, "daf22320d42803fa30d2fe2e41230abbd6d82c018e2ab5c754a4865b16e009c0",
			func() runner { return &XCheckRequest{} }},
	} {
		if got := keyForBody(t, c.endpoint, c.fresh, []byte(c.body)); got != c.want {
			t.Errorf("%s %s key = %s, want %s", c.endpoint, c.body, got, c.want)
		}
	}
}
