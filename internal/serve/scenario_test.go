package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"steac/internal/core"
	"steac/internal/dsc"
	"steac/internal/envelope"
)

// TestFlowScenarioEndpoint drives a generated scenario chip through the
// daemon's flow endpoint with ATE verification on, and checks the scenario
// knobs are part of the cache key (a different seed is a different chip).
func TestFlowScenarioEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	t.Cleanup(func() { _ = s.Drain(context.Background()) })

	resp, blob := post(t, ts.URL+"/v1/flow", `{"chip":"memory-heavy","seed":1,"verify":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario flow POST: %d %s", resp.StatusCode, blob)
	}
	var out FlowResponse
	if err := json.Unmarshal(decodeEnvelope(t, blob).Result, &out); err != nil {
		t.Fatalf("bad flow response %s: %v", blob, err)
	}
	if out.ScheduleCycles <= 0 || out.Sessions <= 0 {
		t.Errorf("scenario flow produced no schedule: %+v", out)
	}
	if out.VerifyPass == nil || !*out.VerifyPass {
		t.Errorf("scenario chip failed ATE verification: %+v", out)
	}

	// Same scenario, different seed: must miss the cache (Seed is semantic).
	resp2, blob2 := post(t, ts.URL+"/v1/flow", `{"chip":"memory-heavy","seed":2,"verify":true}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second scenario flow POST: %d %s", resp2.StatusCode, blob2)
	}
	if decodeEnvelope(t, blob2).Cached {
		t.Error("different chip seed hit the cache; seed must be part of the key")
	}
}

// TestFlowScenarioBadRequests maps scenario misuse to 400s with actionable
// messages.
func TestFlowScenarioBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { _ = s.Drain(context.Background()) })

	resp, blob := post(t, ts.URL+"/v1/flow", `{"chip":"no-such-scenario"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scenario: %d %s, want 400", resp.StatusCode, blob)
	}
	// The error must name the registered scenarios so the client can recover.
	if !strings.Contains(string(blob), "dsc") {
		t.Errorf("unknown-scenario error does not list builtins: %s", blob)
	}

	resp, blob = post(t, ts.URL+"/v1/flow", `{"chip":"manycore","extest":true}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("extest on scenario chip: %d %s, want 400", resp.StatusCode, blob)
	}
}

// TestFlowSoftCore: explicit STIL with a soft core is a client error when
// the flow is asked to verify it — a typed 400 naming the core, not a 500 —
// and still schedules when it is not.
func TestFlowSoftCore(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(func() { _ = s.Drain(context.Background()) })
	stils, err := core.EmitSTIL(dsc.Cores())
	if err != nil {
		t.Fatal(err)
	}
	soft := dsc.Cores()[0].Name
	stils[0] = strings.Replace(stils[0], "soft=false", "soft=true", 1)

	body := func(verify bool) string {
		b, err := json.Marshal(FlowRequest{STIL: stils, Verify: verify})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	resp, blob := post(t, ts.URL+"/v1/flow", body(true))
	var we envelope.Error
	if err := json.Unmarshal(blob, &we); err != nil {
		t.Fatalf("soft-core verify: %d %s", resp.StatusCode, blob)
	}
	if resp.StatusCode != http.StatusBadRequest || we.Code != "bad_request" || !strings.Contains(we.Error, soft) {
		t.Fatalf("soft-core verify: %d %+v, want a 400 bad_request naming %s", resp.StatusCode, we, soft)
	}

	resp, blob = post(t, ts.URL+"/v1/flow", body(false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("soft-core schedule: %d %s", resp.StatusCode, blob)
	}
	var out FlowResponse
	if err := json.Unmarshal(decodeEnvelope(t, blob).Result, &out); err != nil {
		t.Fatal(err)
	}
	if out.ScheduleCycles <= 0 || out.Sessions <= 0 {
		t.Errorf("soft-core flow produced no schedule: %+v", out)
	}
}
