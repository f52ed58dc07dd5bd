package ate

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"steac/internal/pattern"
	"steac/internal/sched"
	"steac/internal/stil"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// Miniature DSC: the same structure as the paper's chip (a multi-chain scan
// core, a scan+functional core with a shared scan-out, a functional-only
// core) at simulation-friendly pattern counts.
func miniCores() []*testinfo.Core {
	return []*testinfo.Core{
		{
			Name:        "USB",
			Clocks:      []string{"ck0", "ck1"},
			Resets:      []string{"rst"},
			ScanEnables: []string{"se"},
			TestEnables: []string{"t0", "t1"},
			PIs:         11, POs: 7,
			ScanChains: []testinfo.ScanChain{
				{Name: "c0", Length: 23, In: "si0", Out: "so0", Clock: "ck0"},
				{Name: "c1", Length: 9, In: "si1", Out: "so1", Clock: "ck1"},
				{Name: "c2", Length: 5, In: "si2", Out: "so2", Clock: "ck0"},
			},
			Patterns: []testinfo.PatternSet{{Name: "scan", Type: testinfo.Scan, Count: 7, Seed: 31}},
		},
		{
			Name:        "TV",
			Clocks:      []string{"ck"},
			Resets:      []string{"rst"},
			ScanEnables: []string{"se"},
			TestEnables: []string{"te"},
			PIs:         6, POs: 8,
			ScanChains: []testinfo.ScanChain{
				{Name: "c0", Length: 12, In: "si0", Out: "so0", Clock: "ck"},
				{Name: "c1", Length: 11, In: "si1", Out: "po", Clock: "ck", SharedOut: true},
			},
			Patterns: []testinfo.PatternSet{
				{Name: "scan", Type: testinfo.Scan, Count: 5, Seed: 32},
				{Name: "func", Type: testinfo.Functional, Count: 30, Seed: 33},
			},
		},
		{
			Name:   "JPEG",
			Clocks: []string{"ck"},
			PIs:    14, POs: 9,
			Patterns: []testinfo.PatternSet{{Name: "func", Type: testinfo.Functional, Count: 25, Seed: 34}},
		},
	}
}

func buildProgram(t *testing.T, res sched.Resources, schedule func([]sched.Test, sched.Resources) (*sched.Schedule, error)) (*pattern.Program, *sched.Schedule, map[string]pattern.Source) {
	t.Helper()
	cores := miniCores()
	tests, err := sched.BuildTests(cores, []sched.BISTGroup{{Name: "g0", Cycles: 64, Power: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule(tests, res)
	if err != nil {
		t.Fatal(err)
	}
	sources := make(map[string]pattern.Source)
	for _, c := range cores {
		a, err := pattern.NewATPG(c)
		if err != nil {
			t.Fatal(err)
		}
		sources[c.Name] = a
	}
	prog, err := pattern.Translate(s, sources, res)
	if err != nil {
		t.Fatal(err)
	}
	return prog, s, sources
}

func miniRes() sched.Resources {
	return sched.Resources{TestPins: 24, FuncPins: 16, Partitioner: wrapper.LPT}
}

// TestEndToEndFlowPasses is the Fig. 1 verification: schedule -> wrapper
// design -> pattern translation -> ATE application against the chip model,
// with zero mismatches and a cycle count equal to the scheduler's estimate.
func TestEndToEndFlowPasses(t *testing.T) {
	prog, s, _ := buildProgram(t, miniRes(), sessionBased)
	chip := NewChip(prog, miniCores())
	res, err := Run(prog, chip)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("healthy chip failed: %d mismatches, first %+v", res.Mismatches, res.First)
	}
	if res.Cycles != s.TotalCycles {
		t.Fatalf("ATE measured %d cycles, scheduler predicted %d", res.Cycles, s.TotalCycles)
	}
	if prog.TotalCycles() != s.TotalCycles {
		t.Fatalf("program total %d != schedule %d", prog.TotalCycles(), s.TotalCycles)
	}
}

func TestEndToEndDetectsCoreDefect(t *testing.T) {
	prog, _, _ := buildProgram(t, miniRes(), sessionBased)
	for _, core := range []string{"USB", "TV", "JPEG"} {
		chip := NewChip(prog, miniCores(), WithCoreDefect(core))
		res, err := Run(prog, chip)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pass {
			t.Fatalf("defect in %s went undetected", core)
		}
		if res.First == nil {
			t.Fatal("no first-mismatch diagnostics")
		}
	}
}

func TestEndToEndDetectsStuckTamWire(t *testing.T) {
	prog, _, _ := buildProgram(t, miniRes(), sessionBased)
	chip := NewChip(prog, miniCores(), WithStuckTamWire(0))
	res, err := Run(prog, chip)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatal("stuck TAM wire went undetected")
	}
}

// The translated program must also verify when built from the baseline
// schedulers (the translator is scheduler-agnostic).
func TestEndToEndSerialSchedule(t *testing.T) {
	prog, s, _ := buildProgram(t, miniRes(), sched.Serial)
	chip := NewChip(prog, miniCores())
	res, err := Run(prog, chip)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass || res.Cycles != s.TotalCycles {
		t.Fatalf("serial run: pass=%t cycles=%d want %d", res.Pass, res.Cycles, s.TotalCycles)
	}
}

func TestEndToEndNonSessionSchedule(t *testing.T) {
	prog, s, _ := buildProgram(t, miniRes(), sched.NonSessionBased)
	chip := NewChip(prog, miniCores())
	res, err := Run(prog, chip)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass || res.Cycles != s.TotalCycles {
		t.Fatalf("non-session run: pass=%t cycles=%d want %d", res.Pass, res.Cycles, s.TotalCycles)
	}
}

func TestChipSessionBounds(t *testing.T) {
	prog, _, _ := buildProgram(t, miniRes(), sessionBased)
	chip := NewChip(prog, miniCores())
	if err := chip.StartSession(len(prog.Sessions)); err == nil {
		t.Fatal("out-of-range session accepted")
	}
}

// The explicit-vector path: export the ATPG's patterns into a STIL file
// with literal vectors, parse them back as an ExplicitSource, translate,
// and verify on the chip model.  Because the vectors are bit-identical to
// the generator's, the tester observes zero mismatches — the vector
// hand-off itself is proven lossless end to end.
func TestEndToEndExplicitSTILVectors(t *testing.T) {
	cores := miniCores()
	res := miniRes()
	tests, err := sched.BuildTests(cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		t.Fatal(err)
	}
	sources := make(map[string]pattern.Source)
	for _, c := range cores {
		a, err := pattern.NewATPG(c)
		if err != nil {
			t.Fatal(err)
		}
		scan, fn, err := pattern.Export(a, -1, -1)
		if err != nil {
			t.Fatal(err)
		}
		src, err := stil.EmitWithVectors(c, pattern.ToSTIL(c, scan, fn))
		if err != nil {
			t.Fatal(err)
		}
		backCore, vecs, err := stil.ParseWithVectors(src)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := pattern.FromSTIL(backCore, vecs)
		if err != nil {
			t.Fatal(err)
		}
		sources[c.Name] = exp
	}
	prog, err := pattern.Translate(s, sources, res)
	if err != nil {
		t.Fatal(err)
	}
	chip := NewChip(prog, cores)
	r, err := Run(prog, chip)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Fatalf("explicit-vector program failed: %d mismatches, first %+v", r.Mismatches, r.First)
	}
	if r.Cycles != s.TotalCycles {
		t.Fatalf("cycles %d != %d", r.Cycles, s.TotalCycles)
	}
}

// Writing the translated program to a tester file and replaying the file
// must be equivalent to streaming it directly: same cycle count, zero
// mismatches on a healthy chip, and detection on a defective one.
func TestProgramFileRoundTrip(t *testing.T) {
	prog, s, _ := buildProgram(t, miniRes(), sessionBased)
	var buf bytes.Buffer
	if err := pattern.WriteProgramFile(&buf, prog); err != nil {
		t.Fatal(err)
	}
	rec, err := pattern.ReadProgramFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rec.TotalCycles() != s.TotalCycles {
		t.Fatalf("recorded %d cycles, want %d", rec.TotalCycles(), s.TotalCycles)
	}
	chip := NewChip(prog, miniCores())
	r, err := RunRecorded(prog, rec, chip)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass || r.Cycles != s.TotalCycles {
		t.Fatalf("replay: pass=%t cycles=%d want %d (first %+v)", r.Pass, r.Cycles, s.TotalCycles, r.First)
	}
	bad := NewChip(prog, miniCores(), WithCoreDefect("TV"))
	rb, err := RunRecorded(prog, rec, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Pass {
		t.Fatal("replay missed the defect")
	}
}

// Replaying the tester file on a defective chip reports exactly what Run
// reports: the same mismatch count, first failing compare and failing
// tests — the file alone names the failing core.
func TestRecordedReplayMatchesRun(t *testing.T) {
	scanProg, _, _ := buildProgram(t, miniRes(), sessionBased)
	extProg, _, _ := extestProgram(t)
	for _, tc := range []struct {
		name string
		prog *pattern.Program
		opt  Option
	}{
		{"core defect", scanProg, WithCoreDefect("TV")},
		{"stuck wire", scanProg, WithStuckTamWire(1)},
		{"open interconnect", extProg, WithOpenInterconnect(3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := pattern.WriteProgramFile(&buf, tc.prog); err != nil {
				t.Fatal(err)
			}
			rec, err := pattern.ReadProgramFile(&buf)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(tc.prog, NewChip(tc.prog, miniCores(), tc.opt))
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunRecorded(tc.prog, rec, NewChip(tc.prog, miniCores(), tc.opt))
			if err != nil {
				t.Fatal(err)
			}
			if want.Pass || len(want.FailingTests) == 0 {
				t.Fatalf("Run missed the defect: %+v", want)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replay %+v (first %+v), Run %+v (first %+v)", got, got.First, want, want.First)
			}
		})
	}
}

// A tester file whose scan controls name a core the session has no lane
// for is refused, not silently idled.
func TestRecordedUnknownCore(t *testing.T) {
	prog, _, _ := buildProgram(t, miniRes(), sessionBased)
	var buf bytes.Buffer
	if err := pattern.WriteProgramFile(&buf, prog); err != nil {
		t.Fatal(err)
	}
	rec, err := pattern.ReadProgramFile(strings.NewReader(strings.ReplaceAll(buf.String(), "TV:", "GHOST:")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunRecorded(prog, rec, NewChip(prog, miniCores())); err == nil || !strings.Contains(err.Error(), "GHOST") {
		t.Fatalf("unknown core replayed: %v", err)
	}
}

// A tester file cut short — by one vector line or by many — is refused
// with ErrCycleCount, both when it is read and when a recorded program
// shorter than the chip's is replayed; it never replays as a pass.
func TestTruncatedProgramFile(t *testing.T) {
	prog, _, _ := buildProgram(t, miniRes(), sessionBased)
	var buf bytes.Buffer
	if err := pattern.WriteProgramFile(&buf, prog); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(buf.String(), "\n"), "\n")
	for _, drop := range []int{1, 100} {
		cut := strings.Join(lines[:len(lines)-drop], "")
		if _, err := pattern.ReadProgramFile(strings.NewReader(cut)); !errors.Is(err, pattern.ErrCycleCount) {
			t.Errorf("file cut by %d lines: err = %v, want ErrCycleCount", drop, err)
		}
		rec, err := pattern.ReadProgramFile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		last := &rec.Sessions[len(rec.Sessions)-1]
		last.Cycles = last.Cycles[:len(last.Cycles)-drop]
		r, err := RunRecorded(prog, rec, NewChip(prog, miniCores()))
		if !errors.Is(err, pattern.ErrCycleCount) {
			t.Errorf("replay cut by %d cycles: pass=%t cycles=%d err=%v, want ErrCycleCount", drop, r.Pass, r.Cycles, err)
		}
	}
}

func TestProgramFileErrors(t *testing.T) {
	for name, src := range map[string]string{
		"empty":        "",
		"bad magic":    "NOTPROG tam=1 func=1 sessions=0\n",
		"bad tam":      "STEACPROG tam=x func=1 sessions=0\n",
		"loose vector": "STEACPROG tam=1 func=1 sessions=0\nV 0 X 0 X -\n",
		"bad session":  "STEACPROG tam=1 func=1 sessions=1\nSESSION a cycles=1\n",
		"short bus":    "STEACPROG tam=2 func=1 sessions=1\nSESSION 0 cycles=1\nV 0 X 0 X -\n",
		"bad char":     "STEACPROG tam=1 func=1 sessions=1\nSESSION 0 cycles=1\nV q X 0 X -\n",
		"bad action":   "STEACPROG tam=1 func=1 sessions=1\nSESSION 0 cycles=1\nV 0 X 0 X USB:Q\n",
		"count lie":    "STEACPROG tam=1 func=1 sessions=2\nSESSION 0 cycles=0\n",
		"junk line":    "STEACPROG tam=1 func=1 sessions=1\nSESSION 0 cycles=0\nwhat\n",
	} {
		if _, err := pattern.ReadProgramFile(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFailingTestAttribution(t *testing.T) {
	prog, _, _ := buildProgram(t, miniRes(), sessionBased)
	chip := NewChip(prog, miniCores(), WithCoreDefect("TV"))
	r, err := Run(prog, chip)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Fatal("defect undetected")
	}
	foundTV := false
	for _, id := range r.FailingTests {
		if strings.HasPrefix(id, "TV.") {
			foundTV = true
		}
		if strings.HasPrefix(id, "JPEG.") {
			t.Fatalf("healthy JPEG blamed: %v", r.FailingTests)
		}
	}
	if !foundTV {
		t.Fatalf("TV not attributed: %v", r.FailingTests)
	}
	// Healthy chip attributes nothing.
	ok, err := Run(prog, NewChip(prog, miniCores()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ok.FailingTests) != 0 {
		t.Fatalf("healthy chip blamed %v", ok.FailingTests)
	}
}

// sessionBased adapts SessionBasedContext to buildProgram's scheduler shape
// for tests that never cancel.
func sessionBased(tests []sched.Test, res sched.Resources) (*sched.Schedule, error) {
	return sched.SessionBasedContext(context.Background(), tests, res)
}
