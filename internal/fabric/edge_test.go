package fabric

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
	"time"

	"steac/internal/envelope"
)

// fabricRouteRows is the route capability table: one row per registered
// /v1/fabric route; body rows decode a JSON request body.  Fabric routes
// are intra-cluster and never authenticated or throttled.
var fabricRouteRows = []struct {
	pattern string
	body    bool
}{
	{"POST /v1/fabric/campaigns", true},
	{"GET /v1/fabric/campaigns", false},
	{"GET /v1/fabric/campaigns/{fp}", false},
	{"GET /v1/fabric/campaigns/{fp}/progress", false},
	{"GET /v1/fabric/campaigns/{fp}/report", false},
	{"POST /v1/fabric/lease", true},
	{"POST /v1/fabric/heartbeat", true},
	{"POST /v1/fabric/complete", true},
}

// TestFabricRouteBodyCap pins the route table and sends MaxBody+1 bytes to
// every POST route: each refuses the whole body with a 400 naming the
// limit, so no hostile POST grows coordinator memory past the cap.
func TestFabricRouteBodyCap(t *testing.T) {
	c := newCluster(t, Config{TTL: time.Second})
	var registered []string
	for _, rt := range c.coord.routes() {
		registered = append(registered, rt.pattern)
	}
	if len(registered) != len(fabricRouteRows) {
		t.Fatalf("registered routes %v, capability table has %d rows", registered, len(fabricRouteRows))
	}
	body := bytes.Repeat([]byte{' '}, envelope.MaxBody+1)
	copy(body, "{}")
	for i, row := range fabricRouteRows {
		if registered[i] != row.pattern {
			t.Fatalf("route %d is %q, table says %q", i, registered[i], row.pattern)
		}
		if !row.body {
			continue
		}
		path := strings.TrimPrefix(row.pattern, "POST ")
		resp, err := http.Post(c.srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var we envelope.Error
		_ = json.Unmarshal(blob, &we)
		if resp.StatusCode != http.StatusBadRequest || we.Code != "bad_request" || !strings.Contains(we.Error, "16 MiB") {
			t.Errorf("%s with a %d-byte body: %d %s, want 400 bad_request naming the 16 MiB limit",
				row.pattern, len(body), resp.StatusCode, blob)
		}
	}
}

// TestFabricErrorTableRoundTrip writes every protocol sentinel (and an
// unmatched error) through the envelope and decodes it with the client:
// the status and code are the row's, errors.Is holds, and retry
// classification is unchanged — sentinels are definitive answers, an
// internal 500 is retried.
func TestFabricErrorTableRoundTrip(t *testing.T) {
	probes := []envelope.Code{envelope.Internal}
	probes = append(probes, protocol.Codes...)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/fabric/campaigns/{fp}", func(w http.ResponseWriter, r *http.Request) {
		i, _ := strconv.Atoi(r.PathValue("fp"))
		err := errors.New("boom")
		if probes[i].Err != nil {
			err = fmt.Errorf("%w: detail", probes[i].Err)
		}
		protocol.WriteError(w, err)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cl := &Client{Base: ts.URL}
	for i, row := range probes {
		resp, err := http.Get(ts.URL + "/v1/fabric/campaigns/" + strconv.Itoa(i))
		if err != nil {
			t.Fatal(err)
		}
		var we envelope.Error
		_ = json.NewDecoder(resp.Body).Decode(&we)
		resp.Body.Close()
		if resp.StatusCode != row.Status || we.Code != row.Name {
			t.Errorf("%s: %d %+v, want %d %q", row.Name, resp.StatusCode, we, row.Status, row.Name)
		}
		_, err = cl.CampaignInfo(context.Background(), strconv.Itoa(i))
		if row.Err != nil && !errors.Is(err, row.Err) {
			t.Errorf("%s: client error %v does not match %v", row.Name, err, row.Err)
		}
		if got, want := isProtocolError(err), row.Err != nil; got != want {
			t.Errorf("%s: client error %v is protocol error = %v, want %v", row.Name, err, got, want)
		}
	}
}
