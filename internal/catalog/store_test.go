package catalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecord(fp, tenant, scenario string, tam, cycles int) Record {
	return Record{
		Fingerprint: fp, Tenant: tenant, Kind: KindSched,
		Scenario: scenario, Seed: 1,
		Config:        Config{TamWidth: tam, Partitioner: "lpt", Algorithm: "March C-"},
		Features:      Features{Cores: 3, ScanBits: 1000, Memories: 4, MemoryBits: 4096},
		Metrics:       Metrics{TestCycles: cycles, Sessions: 2},
		CreatedUnixMS: 1700000000000,
		Result:        json.RawMessage(`{"cycles":` + "1" + `}`),
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := testRecord("aaa1", "anon", "manycore", 24, 500)
	b := testRecord("bbb2", "anon", "memory-heavy", 32, 900)
	if err := st.Put(a); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(b); err != nil {
		t.Fatal(err)
	}
	// Overwrite: last write wins per (tenant, fingerprint).
	a2 := a
	a2.Metrics.TestCycles = 450
	if err := st.Put(a2); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Dropped() != 0 {
		t.Fatalf("clean reopen dropped %d records", st2.Dropped())
	}
	got, ok := st2.Get("anon", "aaa1")
	if !ok || got.Metrics.TestCycles != 450 {
		t.Fatalf("Get after reopen = %+v, %v (want last write, cycles 450)", got, ok)
	}
	// Byte-identity across the reopen: the stored record re-marshals to
	// exactly the acknowledged bytes.
	want := a2
	want.Schema = SchemaVersion
	wantBlob, _ := json.Marshal(want)
	gotBlob, _ := json.Marshal(got)
	if string(gotBlob) != string(wantBlob) {
		t.Fatalf("record bytes changed across reopen:\n got %s\nwant %s", gotBlob, wantBlob)
	}
}

func TestStoreListFiltersAndOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mf := testRecord("ccc3", "a", "manycore", 16, 700)
	mf.Kind = KindMemfault
	mf.Metrics.Coverage = 98.5
	for _, rec := range []Record{
		testRecord("bbb2", "a", "manycore", 32, 900),
		testRecord("aaa1", "a", "manycore", 24, 500),
		mf,
		testRecord("ddd4", "b", "manycore", 24, 500),
	} {
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	recs := st.List(Query{Tenant: "a"})
	if len(recs) != 3 {
		t.Fatalf("tenant-a list = %d records, want 3", len(recs))
	}
	// Canonical order: kind then TAM width within one scenario/seed.
	if recs[0].Kind != KindMemfault || recs[1].Config.TamWidth != 24 || recs[2].Config.TamWidth != 32 {
		t.Fatalf("order wrong: %+v", recs)
	}
	if got := st.List(Query{Tenant: "a", Kind: KindMemfault}); len(got) != 1 || got[0].Fingerprint != "ccc3" {
		t.Fatalf("kind filter = %+v", got)
	}
	if got := st.List(Query{Tenant: "a", MinCoverage: 90}); len(got) != 1 {
		t.Fatalf("coverage filter = %+v", got)
	}
	if got := st.List(Query{Tenant: "a", Limit: 2}); len(got) != 2 {
		t.Fatalf("limit = %d records", len(got))
	}
}

func TestStoreTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testRecord("aaa1", "anon", "manycore", 24, 500)); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testRecord("bbb2", "anon", "manycore", 32, 900)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, storeFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the final append: drop the last 10 bytes.
	if err := os.WriteFile(path, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("torn tail must repair, not fail: %v", err)
	}
	defer st2.Close()
	if st2.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", st2.Dropped())
	}
	if _, ok := st2.Get("anon", "aaa1"); !ok {
		t.Fatal("survivor lost")
	}
	if _, ok := st2.Get("anon", "bbb2"); ok {
		t.Fatal("torn record resurrected")
	}
	// The repair compacts: a third reopen is clean.
	st2.Close()
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Dropped() != 0 {
		t.Fatalf("post-repair reopen dropped %d", st3.Dropped())
	}
}

func TestStoreInteriorCorruptionIsTyped(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range []string{"aaa1", "bbb2", "ccc3"} {
		if err := st.Put(testRecord(fp, "anon", "manycore", 24, 500)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	path := filepath.Join(dir, storeFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the first line's record payload.
	idx := strings.Index(string(raw), "manycore")
	raw[idx] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCatalogCorrupt) {
		t.Fatalf("interior damage = %v, want ErrCatalogCorrupt", err)
	}
}

func TestStoreRejectsForeignSchema(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(testRecord("aaa1", "anon", "manycore", 24, 500)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, storeFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A well-formed line from a future schema: valid CRC, unknown version.
	future := strings.Replace(string(raw), SchemaVersion, "steac-catalog/v9", 1)
	future = recrc(t, future)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCatalogSchema) {
		t.Fatalf("foreign schema = %v, want ErrCatalogSchema", err)
	}
}

// recrc recomputes the CRC of every line so a deliberately edited record
// still passes the frame check and exercises the layer under test.
func recrc(t *testing.T, file string) string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(file, "\n"), "\n") {
		var env struct {
			CRC uint32          `json:"crc"`
			Rec json.RawMessage `json:"rec"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatal(err)
		}
		env.CRC = crc32.Checksum(env.Rec, crc32.MakeTable(crc32.Castagnoli))
		blob, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(blob))
	}
	return strings.Join(out, "\n") + "\n"
}

// parentRecords are the Puts that wrote testdata/parent/catalog.jsonl with
// the store as it was before it moved onto internal/wal: an overwrite, an
// HTML-escaped and U+2028-escaped result blob, and optional config fields.
func parentRecords() []Record {
	a := testRecord("aaa1", "anon", "manycore", 24, 500)
	b := testRecord("bbb2", "acme", "memory-heavy", 32, 900)
	b.Kind = KindMemfault
	b.Metrics.Coverage = 97.25
	b.Result = json.RawMessage("{\"note\":\"<a&b> \u00e9 \u2028\",\"rows\":[1,2,3]}")
	c := testRecord("ccc3", "anon", "", 16, 1200)
	c.Config.PowerBudget = 1.5
	c.Config.LogicBIST = true
	a2 := a
	a2.Metrics.TestCycles = 450
	return []Record{a, b, c, a2}
}

// TestStoreParentFormat pins the on-disk format across the move onto
// internal/wal: a catalog file written before it opens with the same
// records and List output, and the same Puts today write the same bytes.
func TestStoreParentFormat(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent", "catalog.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wantList, err := os.ReadFile(filepath.Join("testdata", "parent", "list.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeFile), want, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 3 || st.Dropped() != 0 {
		t.Fatalf("parent catalog: Len %d Dropped %d, want 3 and 0", st.Len(), st.Dropped())
	}
	list, err := json.MarshalIndent(st.List(Query{}), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := append(list, '\n'); !bytes.Equal(got, wantList) {
		t.Fatalf("parent catalog List:\n got %s\nwant %s", got, wantList)
	}

	fresh := t.TempDir()
	st2, err := Open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range parentRecords() {
		if err := st2.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(fresh, storeFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Put bytes differ from the parent store:\n got %s\nwant %s", got, want)
	}
}
