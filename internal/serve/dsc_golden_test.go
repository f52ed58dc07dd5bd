package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
)

// TestDSCRoutesGolden pins the exact response bytes of the routes that
// resolve the paper's DSC chip: the flow with and without the EXTEST
// session, the default-chip scheduling sweep, the flow's catalog record
// and a wrapper campaign on a bare Table-1 core name.  The goldens hold
// the bytes serve answered when it built the DSC chip from the dsc
// inventory, which the scenario registry's dsc chip must reproduce.  Run
// with -update to rebless.
func TestDSCRoutesGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	t.Cleanup(func() { _ = s.Drain(context.Background()) })
	for _, c := range []struct{ golden, path, body string }{
		{"dsc_flow.golden", "/v1/flow", `{"chip":"dsc"}`},
		{"dsc_flow_extest.golden", "/v1/flow", `{"chip":"dsc","extest":true}`},
		{"dsc_sched_default.golden", "/v1/sched", `{"test_pins":[20,24,26,30]}`},
		{"dsc_xcheck_tv.golden", "/v1/xcheck",
			`{"kind":"wrapper","core":"TV","tam_width":2,"max_faults":64,"seed":9,"max_patterns":4}`},
	} {
		resp, blob := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", c.path, c.body, resp.StatusCode, blob)
		}
		checkGolden(t, c.golden, decodeEnvelope(t, blob).Result)
	}

	req := FlowRequest{Chip: "dsc"}
	out, err := req.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	recs := req.catalogRecords("f0", "t0", out, blob)
	if len(recs) != 1 {
		t.Fatalf("dsc flow produced %d catalog records, want 1", len(recs))
	}
	rec, err := json.Marshal(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dsc_flow_record.golden", rec)
}
