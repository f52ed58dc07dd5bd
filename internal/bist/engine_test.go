package bist

import (
	"context"
	"testing"

	"steac/internal/march"
	"steac/internal/memfault"
	"steac/internal/memory"
)

// mustRun executes e to completion; with no deadline RunContext cannot
// fail, so an error is a bug.
func mustRun(t *testing.T, e *Engine) Result {
	t.Helper()
	res, err := e.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mems(t *testing.T, cfgs ...memory.Config) []MemoryUnderTest {
	t.Helper()
	out := make([]MemoryUnderTest, len(cfgs))
	for i, c := range cfgs {
		m, err := memory.New(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = MemoryUnderTest{RAM: m}
	}
	return out
}

func TestEngineFaultFreePasses(t *testing.T) {
	g := Group{Name: "g0", Alg: march.MarchCMinus(), Mems: mems(t,
		memory.Config{Name: "a", Words: 64, Bits: 8},
		memory.Config{Name: "b", Words: 32, Bits: 16},
	)}
	e, err := NewEngine([]Group{g}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if !res.Pass {
		t.Fatalf("fault-free run failed: %+v", res.Mems)
	}
	// The largest memory paces the group: March C- is 10N with N = 64.
	if want := 10 * 64; res.Cycles != want {
		t.Fatalf("cycles = %d, want %d", res.Cycles, want)
	}
	if res.Cycles != e.PredictedCycles() {
		t.Fatalf("measured %d != predicted %d", res.Cycles, e.PredictedCycles())
	}
}

func TestEngineGroupCyclesFormula(t *testing.T) {
	g := Group{Name: "g", Alg: march.MarchY(), Mems: mems(t,
		memory.Config{Name: "a", Words: 100, Bits: 4},
		memory.Config{Name: "b", Words: 37, Bits: 9},
	)}
	// March Y: elements of 1,3,3,1 ops; each paced by 100 words.
	want := 100*1 + 100*3 + 100*3 + 100*1
	if got := g.Cycles(); got != want {
		t.Fatalf("analytic cycles = %d, want %d", got, want)
	}
	e, err := NewEngine([]Group{g}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	if res := mustRun(t, e); res.Cycles != want {
		t.Fatalf("engine cycles = %d, want %d", res.Cycles, want)
	}
}

func TestEngineSerialVsParallel(t *testing.T) {
	g1 := Group{Name: "g1", Alg: march.MarchCMinus(), Mems: mems(t,
		memory.Config{Name: "a", Words: 128, Bits: 8})}
	g2 := Group{Name: "g2", Alg: march.MarchCMinus(), Mems: mems(t,
		memory.Config{Name: "b", Words: 64, Bits: 8})}

	serial, err := NewEngine([]Group{g1, g2}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	rs := mustRun(t, serial)
	if want := 10*128 + 10*64; rs.Cycles != want {
		t.Fatalf("serial cycles = %d, want %d", rs.Cycles, want)
	}

	// Fresh memories for the parallel run (the serial run dirtied them,
	// though March re-initializes anyway).
	g1.Mems = mems(t, memory.Config{Name: "a", Words: 128, Bits: 8})
	g2.Mems = mems(t, memory.Config{Name: "b", Words: 64, Bits: 8})
	parallel, err := NewEngine([]Group{g1, g2}, Parallel)
	if err != nil {
		t.Fatal(err)
	}
	rp := mustRun(t, parallel)
	if want := 10 * 128; rp.Cycles != want {
		t.Fatalf("parallel cycles = %d, want %d", rp.Cycles, want)
	}
	if len(rs.GroupCycles) != 2 || len(rp.GroupCycles) != 2 {
		t.Fatal("missing group cycle breakdown")
	}
}

func TestEngineDetectsInjectedFault(t *testing.T) {
	cfg := memory.Config{Name: "f", Words: 32, Bits: 8}
	faulty, err := memfault.NewFaulty(cfg, []memfault.Fault{
		{Kind: memfault.SA1, Victim: memfault.Cell{Addr: 5, Bit: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	good, err := memory.New(memory.Config{Name: "g", Words: 32, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	g := Group{Name: "g", Alg: march.MarchCMinus(), Mems: []MemoryUnderTest{
		{RAM: faulty}, {RAM: good},
	}}
	e, err := NewEngine([]Group{g}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if res.Pass {
		t.Fatal("SA1 not detected")
	}
	if res.Mems[0].Pass || res.Mems[0].FirstFail == nil {
		t.Fatalf("faulty memory result: %+v", res.Mems[0])
	}
	if res.Mems[0].FirstFail.Addr != 5 {
		t.Fatalf("first fail at addr %d, want 5", res.Mems[0].FirstFail.Addr)
	}
	if !res.Mems[1].Pass {
		t.Fatal("healthy memory flagged")
	}
}

// The engine and the memfault reference simulator must agree on detection
// for every fault model (they implement the same March semantics through
// different code paths).
func TestEngineMatchesReferenceSimulator(t *testing.T) {
	cfg := memory.Config{Name: "x", Words: 16, Bits: 4}
	faults := memfault.Sample(memfault.AllFaults(cfg), 120, 7)
	for _, alg := range []march.Algorithm{march.MATSPlus(), march.MarchCMinus(), march.MarchY()} {
		for _, f := range faults {
			ref, err := memfault.Simulate(alg, cfg, []memfault.Fault{f}, memfault.Options{})
			if err != nil {
				t.Fatal(err)
			}
			fr, err := memfault.NewFaulty(cfg, []memfault.Fault{f})
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine([]Group{{Name: "g", Alg: alg,
				Mems: []MemoryUnderTest{{RAM: fr}}}}, Serial)
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, e)
			if res.Pass == ref.Detected {
				t.Fatalf("%s on %s: engine pass=%t but reference detected=%t",
					alg.Name, f, res.Pass, ref.Detected)
			}
		}
	}
}

func TestEngineBackground(t *testing.T) {
	cfg := memory.Config{Name: "bg", Words: 16, Bits: 8}
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := Group{Name: "g", Alg: march.MarchCMinus(),
		Mems: []MemoryUnderTest{{RAM: m, Background: 0x55}}}
	e, err := NewEngine([]Group{g}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	if res := mustRun(t, e); !res.Pass {
		t.Fatalf("checkerboard background run failed: %+v", res.Mems)
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, Serial); err == nil {
		t.Fatal("empty plan accepted")
	}
	if _, err := NewEngine([]Group{{Name: "g", Alg: march.MSCAN()}}, Serial); err == nil {
		t.Fatal("group without memories accepted")
	}
	ok := mems(t, memory.Config{Name: "a", Words: 4, Bits: 2})
	if _, err := NewEngine([]Group{{Name: "g", Alg: march.Algorithm{Name: "empty"}, Mems: ok}}, Serial); err == nil {
		t.Fatal("invalid algorithm accepted")
	}
	if _, err := NewEngine([]Group{{Name: "g", Alg: march.MSCAN(), Mems: ok}}, Schedule(9)); err == nil {
		t.Fatal("bad schedule accepted")
	}
	if Serial.String() != "serial" || Parallel.String() != "parallel" {
		t.Fatal("schedule names")
	}
}

func TestRetentionModeCatchesDRF(t *testing.T) {
	cfg := memory.Config{Name: "rt", Words: 32, Bits: 8}
	mk := func() memory.RAM {
		f, err := memfault.NewFaulty(cfg, []memfault.Fault{
			{Kind: memfault.DRF, Victim: memfault.Cell{Addr: 9, Bit: 4}, Forced: 0},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	plain := Group{Name: "g", Alg: march.MarchCMinus(),
		Mems: []MemoryUnderTest{{RAM: mk()}}}
	e1, err := NewEngine([]Group{plain}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	if r := mustRun(t, e1); !r.Pass {
		t.Fatal("DRF detected without any retention pause")
	}
	ret := Group{Name: "g", Alg: march.MarchCMinus(),
		Mems:        []MemoryUnderTest{{RAM: mk()}},
		PauseBefore: []int{1, 2}, PauseCycles: 100}
	e2, err := NewEngine([]Group{ret}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, e2)
	if r.Pass {
		t.Fatal("retention mode missed the DRF")
	}
	// Pause cycles are accounted: 10N + 2*100.
	if want := 10*32 + 200; r.Cycles != want {
		t.Fatalf("cycles = %d, want %d", r.Cycles, want)
	}
	if r.Cycles != ret.Cycles() {
		t.Fatalf("analytic %d != measured %d", ret.Cycles(), r.Cycles)
	}
}

func TestBackgroundGroupCycles(t *testing.T) {
	cfg := memory.Config{Name: "bg", Words: 16, Bits: 8}
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := Group{Name: "g", Alg: march.MarchCMinus(),
		Mems:        []MemoryUnderTest{{RAM: m}},
		Backgrounds: []uint64{0, 0x55}}
	e, err := NewEngine([]Group{g}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, e)
	if !r.Pass {
		t.Fatalf("dual-background run failed: %+v", r.Mems)
	}
	want := 2 * 10 * 16
	if r.Cycles != want {
		t.Fatalf("cycles = %d, want %d", r.Cycles, want)
	}
	if g.Cycles() != want {
		t.Fatalf("analytic cycles = %d", g.Cycles())
	}
}

func TestPortBPassCatchesPortBFault(t *testing.T) {
	cfg := memory.Config{Name: "tp", Words: 64, Bits: 8, Kind: memory.TwoPort}
	mk := func() memory.RAM {
		f, err := memfault.NewFaulty(cfg, []memfault.Fault{
			{Kind: memfault.SAB1, Victim: memfault.Cell{Addr: 13, Bit: 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// The port-A March cannot see a port-B fault.
	plain := Group{Name: "g", Alg: march.MarchCMinus(),
		Mems: []MemoryUnderTest{{RAM: mk()}}}
	e1, err := NewEngine([]Group{plain}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	if r := mustRun(t, e1); !r.Pass {
		t.Fatal("port-B fault visible to port-A March")
	}
	// The write-A/read-B pass does.
	pb := Group{Name: "g", Alg: march.MarchCMinus(),
		Mems: []MemoryUnderTest{{RAM: mk()}}, TestPortB: true}
	e2, err := NewEngine([]Group{pb}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, e2)
	if r.Pass {
		t.Fatal("port-B pass missed the SAB1")
	}
	if r.Mems[0].FirstFail.Addr != 13 {
		t.Fatalf("first fail at %d, want 13", r.Mems[0].FirstFail.Addr)
	}
	// Cycle accounting: 10N + 4N.
	if want := 10*64 + 4*64; r.Cycles != want {
		t.Fatalf("cycles = %d, want %d", r.Cycles, want)
	}
	if pb.Cycles() != r.Cycles {
		t.Fatalf("analytic %d != measured %d", pb.Cycles(), r.Cycles)
	}
}

func TestPortBPassMixedGroup(t *testing.T) {
	// Single-port memories idle during the port-B pass; the two-port
	// macro paces it.
	sp, err := memory.New(memory.Config{Name: "sp", Words: 128, Bits: 8})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := memory.New(memory.Config{Name: "tp", Words: 32, Bits: 8, Kind: memory.TwoPort})
	if err != nil {
		t.Fatal(err)
	}
	g := Group{Name: "g", Alg: march.MarchCMinus(),
		Mems: []MemoryUnderTest{{RAM: sp}, {RAM: tp}}, TestPortB: true}
	e, err := NewEngine([]Group{g}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, e)
	if !r.Pass {
		t.Fatalf("mixed group failed: %+v", r.Mems)
	}
	if want := 10*128 + 4*32; r.Cycles != want {
		t.Fatalf("cycles = %d, want %d", r.Cycles, want)
	}
}
