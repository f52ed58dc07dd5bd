package xcheck

import (
	"context"
	"strings"
	"testing"

	"steac/internal/bist"
	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
)

func mustAlg(t *testing.T, name string) march.Algorithm {
	t.Helper()
	alg, ok := march.ByName(name)
	if !ok {
		t.Fatalf("catalog has no %s", name)
	}
	return alg
}

func TestVerifyBISTCatalogEquivalence(t *testing.T) {
	cases := []struct {
		name string
		alg  string
		mems []memory.Config
	}{
		{"marchx-1p", "MATS+", []memory.Config{
			{Name: "m0", Words: 16, Bits: 4, Kind: memory.SinglePort}}},
		{"marchc-mixed", "March C-", []memory.Config{
			{Name: "m0", Words: 16, Bits: 4, Kind: memory.SinglePort},
			{Name: "m1", Words: 8, Bits: 6, Kind: memory.SinglePort}}},
		{"marchx-2p", "March X", []memory.Config{
			{Name: "m0", Words: 16, Bits: 5, Kind: memory.TwoPort}}},
		{"marchy-mixed-2p", "March Y", []memory.Config{
			{Name: "m0", Words: 12, Bits: 4, Kind: memory.TwoPort},
			{Name: "m1", Words: 16, Bits: 3, Kind: memory.SinglePort}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := VerifyBISTContext(context.Background(), tc.name, mustAlg(t, tc.alg), tc.mems, Options{})
			if err != nil {
				t.Fatalf("VerifyBIST: %v", err)
			}
			for _, m := range res.Mismatches {
				t.Errorf("mismatch: %s", m)
			}
			for _, n := range res.Notes {
				t.Errorf("note: %s", n)
			}
			if !res.Pass {
				t.Fatalf("not equivalent: %s", res.String())
			}
			if res.Checks == 0 || res.Cycles == 0 {
				t.Fatalf("no work done: %s", res.String())
			}
			// Padded session length must match the analytic formula per
			// session (sessions = backgrounds x port selects).
			alg := mustAlg(t, tc.alg)
			maxW := 0
			anyTP := false
			for _, cfg := range PadConfigs(tc.mems) {
				if cfg.Words > maxW {
					maxW = cfg.Words
				}
				anyTP = anyTP || cfg.Kind == memory.TwoPort
			}
			sessions := 2
			if anyTP {
				sessions = 4
			}
			if res.Sessions != sessions {
				t.Errorf("sessions = %d, want %d", res.Sessions, sessions)
			}
			if want := sessions * alg.Complexity() * maxW; res.Cycles != want {
				t.Errorf("cycles = %d, want %d", res.Cycles, want)
			}
		})
	}
}

// The comparator must actually bite: inject a stuck-at fault into the
// flattened bench and drive the same differential session — the run must
// record pin mismatches against the March reference.
func TestBISTSessionDetectsInjectedFault(t *testing.T) {
	alg := mustAlg(t, "March X")
	mems := PadConfigs([]memory.Config{{Name: "m0", Words: 8, Bits: 2, Kind: memory.SinglePort}})
	d, err := bist.BuildVerifyBench(alg, mems)
	if err != nil {
		t.Fatalf("bench: %v", err)
	}
	sim, err := netlist.NewCompiledSim(d, "bench")
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	faults := sim.Faults()
	if len(faults) == 0 {
		t.Fatal("no fault sites")
	}
	detected := 0
	pins := newBenchPins(sim, mems)
	for _, f := range []netlist.SAFault{faults[0], faults[len(faults)/2], faults[len(faults)-1]} {
		// The session compares lane 63, so the fault rides that lane.
		ps, err := netlist.NewPackedSim(sim)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.InjectLane(goldenLane, f.Gate, f.Port, f.Value); err != nil {
			t.Fatalf("inject %v: %v", f, err)
		}
		res := EquivResult{Name: "faulty"}
		verifyBISTSessions(context.Background(), ps, pins, alg, mems, []bistSession{{}}, alg.Complexity()*mems[0].Words, &res, 10)
		if len(res.Mismatches) > 0 || len(res.Notes) > 0 {
			detected++
		}
	}
	if detected == 0 {
		t.Error("no injected fault produced a differential mismatch")
	}
}

func TestVerifyControllerEquivalence(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		res, err := VerifyControllerContext(context.Background(), "ctl", n, Options{})
		if err != nil {
			t.Fatalf("VerifyControllerContext(context.Background(), %d): %v", n, err)
		}
		for _, m := range res.Mismatches {
			t.Errorf("n=%d mismatch: %s", n, m)
		}
		for _, note := range res.Notes {
			t.Errorf("n=%d note: %s", n, note)
		}
		if !res.Pass {
			t.Fatalf("n=%d not equivalent: %s", n, res.String())
		}
		if res.Sessions != 2 {
			t.Errorf("n=%d sessions = %d, want 2", n, res.Sessions)
		}
	}
}

func TestEquivResultString(t *testing.T) {
	r := EquivResult{Name: "x", Pass: true, Sessions: 2, Cycles: 10, Checks: 100}
	if !strings.Contains(r.String(), "EQUIVALENT") {
		t.Errorf("String() = %q", r.String())
	}
	r.Pass = false
	if !strings.Contains(r.String(), "MISMATCH") {
		t.Errorf("String() = %q", r.String())
	}
}

// The per-cycle compare loop must not allocate: a 256-word group runs 16x
// the cycles of a 16-word one, so any per-cycle allocation would open a
// gap of thousands.  Building the bench (netlist generation, compilation,
// pin and label lookup) grows with the address width and is subtracted.
func TestVerifyBISTAllocsIndependentOfSessionLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under -race")
	}
	alg := mustAlg(t, "March C-")
	run := func(words int) float64 {
		mems := []memory.Config{{Name: "m0", Words: words, Bits: 8, Kind: memory.SinglePort}}
		padded := PadConfigs(mems)
		total := testing.AllocsPerRun(3, func() {
			res, err := VerifyBISTContext(context.Background(), "g", alg, mems, Options{})
			if err != nil || !res.Pass {
				t.Fatalf("VerifyBIST: %v %s", err, res.String())
			}
		})
		build := testing.AllocsPerRun(3, func() {
			d, err := bist.BuildVerifyBench(alg, padded)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := netlist.NewCompiledSim(d, "bench")
			if err != nil {
				t.Fatal(err)
			}
			newBenchPins(sim, padded)
		})
		return total - build
	}
	small, large := run(16), run(256)
	if large-small > 8 || small-large > 8 {
		t.Errorf("allocations outside the bench build: 16 words %.0f, 256 words %.0f; want within 8", small, large)
	}
}
