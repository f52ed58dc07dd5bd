package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
)

// collect replays path and returns its records.
func collect(t *testing.T, path string, policy Policy) ([][]byte, int, error) {
	t.Helper()
	var recs [][]byte
	dropped, err := Replay(path, policy, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	return recs, dropped, err
}

// TestFrameIsJSONEnvelope pins the frame to the catalog's historical line:
// json.Marshal of {crc, rec} with the record embedded verbatim, for records
// as json.Marshal renders them (HTML and U+2028 escaped, compact).
func TestFrameIsJSONEnvelope(t *testing.T) {
	for _, v := range []interface{}{
		map[string]int{}, map[string]int{"a": 1}, map[string]string{"s": "<&> \u00e9 \u2028"}, []int{1, 2, 3},
	} {
		rec, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(struct {
			CRC uint32          `json:"crc"`
			Rec json.RawMessage `json:"rec"`
		}{CRC: crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)), Rec: rec})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFrame(nil, rec); string(got) != string(want)+"\n" {
			t.Fatalf("frame of %s = %q, want %q", rec, got, want)
		}
	}
}

// TestReplayPolicies checks the damage taxonomy line by line: a bad frame
// or a record the callback calls damaged is interior damage (typed error
// or skipped) or a dropped tail; other callback errors abort with file and
// line.
func TestReplayPolicies(t *testing.T) {
	good := string(appendFrame(nil, []byte(`{"n":1}`)))
	bad := `{"crc":1,"rec":{"n":2}}` + "\n"
	reject := string(appendFrame(nil, []byte(`{"n":"reject"}`)))
	fn := func(rec []byte) error {
		if bytes.Contains(rec, []byte("reject")) {
			return fmt.Errorf("%w: test", ErrDamaged)
		}
		return nil
	}
	for _, tc := range []struct {
		name    string
		file    string
		policy  Policy
		dropped int
		corrupt bool
	}{
		{"clean", good + good, FailInterior, 0, false},
		{"torn tail", good + good[:9], FailInterior, 1, false},
		{"bad tail", good + bad, FailInterior, 1, false},
		{"rejected tail", good + reject, FailInterior, 1, false},
		{"bad interior", bad + good, FailInterior, 0, true},
		{"rejected interior", reject + good, FailInterior, 0, true},
		{"blank interior", good + "\n" + good, FailInterior, 0, true},
		{"trailing blank lines", good + "\n\n", FailInterior, 0, false},
		{"bad interior skipped", bad + good + reject + good[:5], SkipInterior, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			dropped, err := Replay(path, tc.policy, fn)
			if tc.corrupt {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil || dropped != tc.dropped {
				t.Fatalf("dropped %d err %v, want %d and nil", dropped, err, tc.dropped)
			}
		})
	}

	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte(good+good), 0o644); err != nil {
		t.Fatal(err)
	}
	fatal := errors.New("foreign schema")
	n := 0
	_, err := Replay(path, SkipInterior, func([]byte) error {
		if n++; n == 2 {
			return fatal
		}
		return nil
	})
	if !errors.Is(err, fatal) || errors.Is(err, ErrCorrupt) || !bytes.Contains([]byte(err.Error()), []byte(path+" line 2")) {
		t.Fatalf("callback error = %v, want it wrapped with %s line 2", err, path)
	}
	if _, err := Replay(filepath.Join(t.TempDir(), "missing"), FailInterior, fn); err != nil {
		t.Fatalf("missing log: %v", err)
	}
}

// TestReplayLegacy checks the per-file format decision: a file with no
// framed line is read as bare records, while a framed file never has a
// damaged line read as a bare one.
func TestReplayLegacy(t *testing.T) {
	framed := string(appendFrame(nil, []byte(`{"id":"b"}`)))
	for _, tc := range []struct {
		name string
		file string
		want []string
		err  bool
	}{
		{"bare", `{"id":"a"}` + "\n" + `{"id":"b"}` + "\n", []string{`{"id":"a"}`, `{"id":"b"}`}, false},
		{"framed", framed + framed, []string{`{"id":"b"}`, `{"id":"b"}`}, false},
		{"bare line in framed file", `{"id":"a"}` + "\n" + framed, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			var got []string
			_, err := ReplayLegacy(path, FailInterior, func(rec []byte) error {
				got = append(got, string(rec))
				return nil
			})
			if tc.err {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil || fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("got %q err %v, want %q", got, err, tc.want)
			}
		})
	}
}

// faultFile injects one write or sync failure into a Log's file.  A short
// write lands half the line before failing, like ENOSPC mid-append.
type faultFile struct {
	file
	writeErr, syncErr error
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.writeErr; err != nil {
		f.writeErr = nil
		n, _ := f.file.Write(p[:len(p)/2])
		return n, err
	}
	return f.file.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.syncErr; err != nil {
		f.syncErr = nil
		return err
	}
	return f.file.Sync()
}

// TestAppendFailureRefusesLaterAppends: a failed write or fsync fails the
// Append, every later Append fails too (even once the device recovers),
// and a reopen finds exactly the acknowledged records.
func TestAppendFailureRefusesLaterAppends(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultFile
		cause error
	}{
		{"sync EIO", faultFile{syncErr: syscall.EIO}, syscall.EIO},
		{"short write ENOSPC", faultFile{writeErr: syscall.ENOSPC}, syscall.ENOSPC},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			acked := []string{`{"n":1}`, `{"n":2}`}
			for _, rec := range acked {
				if err := l.Append(json.RawMessage(rec)); err != nil {
					t.Fatal(err)
				}
			}
			fault := tc.fault
			fault.file = l.f
			l.f = &fault
			if err := l.Append(json.RawMessage(`{"n":3}`)); !errors.Is(err, tc.cause) {
				t.Fatalf("faulty Append = %v, want %v", err, tc.cause)
			}
			for i := 0; i < 2; i++ {
				if err := l.Append(json.RawMessage(`{"n":4}`)); !errors.Is(err, tc.cause) {
					t.Fatalf("Append after the failure = %v, want a refusal wrapping %v", err, tc.cause)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recs, dropped, err := collect(t, path, FailInterior)
			if err != nil || dropped != 0 || fmt.Sprintf("%s", recs) != fmt.Sprint(acked) {
				t.Fatalf("after reopen: %s dropped %d err %v, want %v", recs, dropped, err, acked)
			}
			l, err = Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := l.Append(json.RawMessage(`{"n":5}`)); err != nil {
				t.Fatalf("Append after reopen: %v", err)
			}
		})
	}
}

// TestDurabilityProperty drives seeded interleavings of append, compact,
// clean reopen, torn-tail truncation and bitflips under both policies.
// After every damaged reopen the replay either fails with ErrCorrupt
// (FailInterior only, and never for a pure torn tail) or returns records
// byte-identical to acknowledged ones, in order — a prefix of them under
// FailInterior — and any record lost is visible in the dropped count.
func TestDurabilityProperty(t *testing.T) {
	for _, policy := range []Policy{FailInterior, SkipInterior} {
		for seed := int64(0); seed < 20; seed++ {
			policy, seed := policy, seed
			t.Run(fmt.Sprintf("policy=%d/seed=%d", policy, seed), func(t *testing.T) {
				t.Parallel()
				durabilityTrial(t, policy, rand.New(rand.NewSource(seed)))
			})
		}
	}
}

// rewrite compacts l to recs.
func rewrite(l *Log, recs [][]byte) error {
	vals := make([]any, len(recs))
	for i, rec := range recs {
		vals[i] = json.RawMessage(rec)
	}
	return l.Rewrite(vals)
}

func durabilityTrial(t *testing.T, policy Policy, rng *rand.Rand) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { l.Close() }()
	var acked [][]byte
	next := 0

	// reopen replays the log, checks the survivors against acked, and
	// compacts to them the way the stores do.  It reports false when the
	// replay (allowably) refused the log, which is then left closed.
	reopen := func(damaged, tornTail bool) bool {
		t.Helper()
		recs, dropped, err := collect(t, path, policy)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) || policy != FailInterior || !damaged || tornTail {
				t.Fatalf("replay failed: %v (damaged=%v tornTail=%v)", err, damaged, tornTail)
			}
			return false
		}
		i := 0
		for _, rec := range recs {
			for i < len(acked) && !bytes.Equal(acked[i], rec) {
				if policy == FailInterior {
					t.Fatalf("record %s lost before a survivor under FailInterior", acked[i])
				}
				i++
			}
			if i == len(acked) {
				t.Fatalf("replay returned %s, which was never acknowledged (or out of order)", rec)
			}
			i++
		}
		if lost := len(acked) - len(recs); lost > 0 && dropped == 0 {
			t.Fatalf("lost %d records with nothing dropped — silent loss", lost)
		}
		if !damaged && (dropped != 0 || len(recs) != len(acked)) {
			t.Fatalf("clean reopen: %d of %d records, dropped %d", len(recs), len(acked), dropped)
		}
		acked = recs
		if l, err = Open(path); err != nil {
			t.Fatal(err)
		}
		if err := rewrite(l, acked); err != nil {
			t.Fatal(err)
		}
		return true
	}

	for op := 0; op < 60; op++ {
		switch k := rng.Intn(10); {
		case k < 5:
			rec := []byte(fmt.Sprintf(`{"n":%d,"pad":%q}`, next, bytes.Repeat([]byte("x"), rng.Intn(40))))
			next++
			if err := l.Append(json.RawMessage(rec)); err != nil {
				t.Fatal(err)
			}
			acked = append(acked, rec)
		case k < 6:
			if err := rewrite(l, acked); err != nil {
				t.Fatal(err)
			}
		case k < 8:
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			reopen(false, false)
		default:
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) == 0 {
				reopen(false, false)
				continue
			}
			backup := append([]byte(nil), raw...)
			tornTail := rng.Intn(2) == 0
			if tornTail {
				// Cut inside the final line, keeping at least one byte of
				// it: a crash mid-append never removes a whole line.
				start := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
				raw = raw[:start+1+rng.Intn(len(raw)-start-1)]
			} else {
				raw[rng.Intn(len(raw))] ^= 1 << rng.Intn(8)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if !reopen(true, tornTail) {
				// The operator's restore from backup.
				if err := os.WriteFile(path, backup, 0o644); err != nil {
					t.Fatal(err)
				}
				reopen(false, false)
			}
		}
	}
}

// TestConcurrentAppends: appends from several goroutines each land as one
// whole framed line.
func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := l.Append(json.RawMessage(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, dropped, err := collect(t, path, FailInterior)
	if err != nil || dropped != 0 || len(recs) != 100 {
		t.Fatalf("replayed %d records, dropped %d, err %v; want 100, 0, nil", len(recs), dropped, err)
	}
}
