package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"steac/internal/obs"
	"steac/internal/wal"
)

func putJobs(t *testing.T, dir string, recs []jobRecord) {
	t.Helper()
	db, err := openJobDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := db.put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.close(); err != nil {
		t.Fatal(err)
	}
}

// checkJobs opens the database under dir and requires exactly want, byte
// for byte, in submission order.
func checkJobs(t *testing.T, dir string, want []jobRecord) {
	t.Helper()
	db, err := openJobDB(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.close()
	got := db.all()
	if len(got) != len(want) {
		t.Fatalf("job db holds %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("job record %d:\n got %.200s\nwant %.200s", i, g, w)
		}
	}
}

// TestJobDBLargeRecordSurvivesReopen: records have no size cap.  A job
// result over 16 MiB followed by two more records survives two reopens
// (each of which compacts the file).
func TestJobDBLargeRecordSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	recs := []jobRecord{
		{ID: "big", Tenant: AnonTenant, State: jobDone, Submitted: 1,
			Result: json.RawMessage(`"` + strings.Repeat("x", 16<<20+1024) + `"`)},
		{ID: "b", Tenant: AnonTenant, State: jobRunning, Submitted: 2},
		{ID: "c", Tenant: AnonTenant, State: jobQueued, Submitted: 3},
	}
	putJobs(t, dir, recs)
	checkJobs(t, dir, recs)
	checkJobs(t, dir, recs)
}

// TestJobDBInteriorBitflipIsTyped: a flipped bit in an interior line that
// still parses as JSON fails the open with the typed wal error instead of
// serving a job with a silently wrong owner.
func TestJobDBInteriorBitflipIsTyped(t *testing.T) {
	dir := t.TempDir()
	putJobs(t, dir, []jobRecord{
		{ID: "a", Tenant: "alpha", State: jobDone, Submitted: 1},
		{ID: "b", Tenant: "alpha", State: jobDone, Submitted: 2},
	})
	path := filepath.Join(dir, jobDBFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[bytes.Index(raw, []byte(`"alpha"`))+1] ^= 0x01 // "alpha" -> "`lpha"
	first, _, _ := bytes.Cut(raw, []byte("\n"))
	if !json.Valid(first) {
		t.Fatalf("flipped line no longer parses: %s", first)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openJobDB(dir); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open after an interior bitflip = %v, want wal.ErrCorrupt", err)
	}
}

// TestJobDBMigratesParentFormat: a jobs.jsonl written before the wal frame
// (one bare JSON record per line, later rows superseding earlier ones)
// opens with every job and tenant owner, and is rewritten framed.
func TestJobDBMigratesParentFormat(t *testing.T) {
	dir := t.TempDir()
	running := jobRecord{ID: "0123456789abcdef", Tenant: "team-a", Kind: "memfault",
		Fingerprint: "f00d", Spec: json.RawMessage(`{"algorithm":"March C-"}`),
		State: jobRunning, ShardsTotal: 4, Submitted: 100}
	done := running
	done.State, done.ShardsDone, done.Finished = jobDone, 4, 200
	done.Result = json.RawMessage(`{"coverage":99.5}`)
	other := jobRecord{ID: "fedcba9876543210", Tenant: "team-b", Kind: "xcheck",
		Fingerprint: "beef", State: jobQueued, Submitted: 150}
	var parent []byte
	for _, rec := range []jobRecord{running, other, done} {
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		parent = append(append(parent, blob...), '\n')
	}
	path := filepath.Join(dir, jobDBFile)
	if err := os.WriteFile(path, parent, 0o644); err != nil {
		t.Fatal(err)
	}

	want := []jobRecord{done, other}
	checkJobs(t, dir, want)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(line, `{"crc":`) {
			t.Fatalf("migrated line is not framed: %.80s", line)
		}
	}
	checkJobs(t, dir, want)
}

func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestJobDBWriteFailureFailsJob: when the job database refuses a state
// write, the job fails with that error instead of being served (and
// cataloged) as done while the database still says running.  The refusal
// is counted on /metrics, and after a restart the job reads as
// checkpointed, so it stays resumable.  A refused queued→running write
// fails the job before any compute.
func TestJobDBWriteFailureFailsJob(t *testing.T) {
	t.Run("terminal", func(t *testing.T) {
		dir := t.TempDir()
		srv, ts := newTestServer(t, Config{Workers: 2, JobDir: dir, CatalogDir: t.TempDir()})
		failures := obs.CounterValue("serve.jobdb_write_failures")
		st := jobPost(t, ts.URL, jobBodyFor(slowJobSpecJSON, 4), http.StatusAccepted)
		pollJob(t, ts.URL, st.ID, func(s JobStatus) bool { return s.ShardsDone >= 1 })

		// Holding j.mu stalls the campaign's progress callback, so the job
		// cannot settle until the log is closed.
		j := srv.jobMgr.get(st.ID)
		j.mu.Lock()
		state := j.state
		if err := srv.jobMgr.db.close(); err != nil {
			t.Error(err)
		}
		j.mu.Unlock()
		if state != jobRunning {
			t.Fatalf("job was %s when the log closed, want running", state)
		}

		fin := pollJob(t, ts.URL, st.ID, func(s JobStatus) bool { return terminalJobState(s.State) })
		if fin.State != jobFailed || !strings.Contains(fin.Error, "job db") || len(fin.Result) != 0 {
			t.Fatalf("job after a refused terminal write: state %s error %q result %d bytes, want failed with the job db error",
				fin.State, fin.Error, len(fin.Result))
		}
		if _, ok := srv.catalog.Get(st.Tenant, st.Fingerprint); ok {
			t.Fatal("a job whose terminal state was not recorded was ingested into the catalog")
		}
		if !metricAtLeast(metricsBody(t, ts.URL), "serve.jobdb_write_failures", failures+1) {
			t.Fatal("serve.jobdb_write_failures did not count the refused write")
		}

		_, tsB := newTestServer(t, Config{Workers: 2, JobDir: dir})
		if got := jobGet(t, tsB.URL, st.ID, http.StatusOK); got.State != jobCheckpointed || got.ShardsDone == 0 {
			t.Fatalf("after restart the job is %s with %d shards, want checkpointed with progress", got.State, got.ShardsDone)
		}
	})

	t.Run("running", func(t *testing.T) {
		dir := t.TempDir()
		srv, ts := newTestServer(t, Config{Workers: 2, MaxJobs: 1, JobDir: dir})
		srv.jobMgr.sem <- struct{}{} // hold the only job slot: the job stays queued
		st := jobPost(t, ts.URL, jobBody(4), http.StatusAccepted)
		if err := srv.jobMgr.db.close(); err != nil {
			t.Fatal(err)
		}
		<-srv.jobMgr.sem

		fin := pollJob(t, ts.URL, st.ID, func(s JobStatus) bool { return terminalJobState(s.State) })
		if fin.State != jobFailed || !strings.Contains(fin.Error, "job db") {
			t.Fatalf("job after a refused running write: state %s error %q, want failed", fin.State, fin.Error)
		}
		if _, err := os.Stat(filepath.Join(dir, st.ID)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("the job computed despite the refused write: checkpoint dir stat = %v", err)
		}

		_, tsB := newTestServer(t, Config{Workers: 2, JobDir: dir})
		if got := jobGet(t, tsB.URL, st.ID, http.StatusOK); got.State != jobCheckpointed {
			t.Fatalf("after restart the job is %s, want checkpointed", got.State)
		}
	})
}
