package brains

import (
	"context"
	"strings"
	"testing"

	"steac/internal/bist"
	"steac/internal/march"
	"steac/internal/memfault"
	"steac/internal/memory"
)

func testMems() []memory.Config {
	return []memory.Config{
		{Name: "m0", Words: 1024, Bits: 8},
		{Name: "m1", Words: 2048, Bits: 16},
		{Name: "m2", Words: 256, Bits: 32, Kind: memory.TwoPort},
		{Name: "m3", Words: 512, Bits: 8},
	}
}

func TestCompileByKind(t *testing.T) {
	res, err := CompileContext(context.Background(), testMems(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (1-port + 2-port)", len(res.Groups))
	}
	// Default March C- on the largest 1-port macro (2048 words) paces the
	// sp group.
	spCycles := GroupCycles(res.Groups[0])
	if spCycles != 10*2048 {
		t.Fatalf("sp group cycles = %d, want %d", spCycles, 10*2048)
	}
	// No power bound: one session, time = max group.
	if len(res.Sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(res.Sessions))
	}
	if res.Cycles != spCycles {
		t.Fatalf("total cycles = %d, want %d", res.Cycles, spCycles)
	}
	if res.Area.Total() <= 0 {
		t.Fatal("empty area report")
	}
	if res.TestTimeMS() <= 0 {
		t.Fatal("no test time")
	}
}

func TestCompilePowerBoundSplitsSessions(t *testing.T) {
	// A budget below the total power must split the groups into several
	// sessions, each within the bound (every individual group fits in 8).
	res, err := CompileContext(context.Background(), testMems(), Options{Grouping: GroupPerMemory, MaxPower: 8.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) < 2 {
		t.Fatalf("power bound did not split sessions: %d", len(res.Sessions))
	}
	for _, s := range res.Sessions {
		if s.Power > 8.0 {
			t.Fatalf("session power %.2f exceeds bound", s.Power)
		}
	}
	// Serial sessions cost the sum; must exceed the fully parallel time.
	par, err := CompileContext(context.Background(), testMems(), Options{Grouping: GroupPerMemory})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= par.Cycles {
		t.Fatalf("power-bounded %d cycles not slower than parallel %d", res.Cycles, par.Cycles)
	}
}

func TestCompileGroupings(t *testing.T) {
	single, err := CompileContext(context.Background(), testMems(), Options{Grouping: GroupSingle})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Groups) != 1 {
		t.Fatalf("single grouping: %d groups", len(single.Groups))
	}
	per, err := CompileContext(context.Background(), testMems(), Options{Grouping: GroupPerMemory})
	if err != nil {
		t.Fatal(err)
	}
	if len(per.Groups) != 4 {
		t.Fatalf("per-memory grouping: %d groups", len(per.Groups))
	}
	// More sequencers cost more hardware.
	if per.Area.Sequencers <= single.Area.Sequencers {
		t.Fatalf("per-memory sequencer area %.0f <= single %.0f",
			per.Area.Sequencers, single.Area.Sequencers)
	}
}

func TestCompileValidation(t *testing.T) {
	if _, err := CompileContext(context.Background(), nil, Options{}); err == nil {
		t.Fatal("empty memory list accepted")
	}
	dup := []memory.Config{
		{Name: "m", Words: 16, Bits: 4},
		{Name: "m", Words: 32, Bits: 4},
	}
	if _, err := CompileContext(context.Background(), dup, Options{}); err == nil {
		t.Fatal("duplicate names accepted")
	}
	bad := []memory.Config{{Name: "m", Words: 0, Bits: 4}}
	if _, err := CompileContext(context.Background(), bad, Options{}); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	if _, err := CompileContext(context.Background(), testMems(), Options{Grouping: Grouping(7)}); err == nil {
		t.Fatal("bad grouping accepted")
	}
}

func TestNewEngineSelfTest(t *testing.T) {
	res, err := CompileContext(context.Background(), testMems(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fault-free self-test passes.
	eng, err := NewEngine(res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := mustRun(t, eng); !r.Pass {
		t.Fatalf("fault-free self test failed: %+v", r.Mems)
	}
	// Inject a defect into one macro: self-test must fail.
	faulty, err := memfault.NewFaulty(testMems()[1], []memfault.Fault{
		{Kind: memfault.SA0, Victim: memfault.Cell{Addr: 77, Bit: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(res, map[string]memory.RAM{"m1": faulty})
	if err != nil {
		t.Fatal(err)
	}
	r := mustRun(t, eng2)
	if r.Pass {
		t.Fatal("self test missed injected SA0")
	}
	found := false
	for _, m := range r.Mems {
		if m.Name == "m1" && !m.Pass {
			found = true
		}
	}
	if !found {
		t.Fatal("failure not attributed to m1")
	}
}

func TestPowerModel(t *testing.T) {
	small := Power(memory.Config{Name: "s", Words: 256, Bits: 8})
	big := Power(memory.Config{Name: "b", Words: 65536, Bits: 16})
	if big <= small {
		t.Fatalf("power not monotone: %v vs %v", small, big)
	}
	sp := Power(memory.Config{Name: "x", Words: 1024, Bits: 8})
	tp := Power(memory.Config{Name: "x", Words: 1024, Bits: 8, Kind: memory.TwoPort})
	if tp <= sp {
		t.Fatal("two-port not costlier than single-port")
	}
}

func TestEvaluate(t *testing.T) {
	rows, err := EvaluateContext(context.Background(), memory.Config{Name: "e", Words: 8, Bits: 2}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(march.Catalog()) {
		t.Fatalf("rows = %d", len(rows))
	}
	// March C- must beat MSCAN on coverage and cost more cycles.
	var mscan, cminus EvalRow
	for _, r := range rows {
		switch r.Alg.Name {
		case "MSCAN":
			mscan = r
		case "March C-":
			cminus = r
		}
	}
	if cminus.Coverage.Percent() <= mscan.Coverage.Percent() {
		t.Fatalf("March C- %.1f%% not above MSCAN %.1f%%",
			cminus.Coverage.Percent(), mscan.Coverage.Percent())
	}
	if cminus.Cycles <= mscan.Cycles {
		t.Fatal("March C- not longer than MSCAN")
	}
	table := EvaluationTable(rows)
	if !strings.Contains(table, "March C-") || !strings.Contains(table, "MSCAN") {
		t.Fatalf("evaluation table missing algorithms:\n%s", table)
	}
}

func TestReportRendering(t *testing.T) {
	res, err := CompileContext(context.Background(), testMems(), Options{MaxPower: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := Report(res)
	for _, want := range []string{"BIST plan", "BIST sessions", "Controller", "total BIST time"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestBackgroundsDoubleTestTime(t *testing.T) {
	one, err := CompileContext(context.Background(), testMems(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := CompileContext(context.Background(), testMems(), Options{Backgrounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if two.Cycles != 2*one.Cycles {
		t.Fatalf("two backgrounds = %d cycles, want 2x%d", two.Cycles, one.Cycles)
	}
	// The self-test still passes on fault-free memories with both passes.
	eng, err := NewEngine(two, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := mustRun(t, eng); !r.Pass {
		t.Fatalf("dual-background self test failed: %+v", r.Mems)
	}
}

func TestBackgroundsCatchIntraWordFault(t *testing.T) {
	cfg := memory.Config{Name: "m0", Words: 64, Bits: 8}
	mkFaulty := func() memory.RAM {
		f, err := memfault.NewFaulty(cfg, []memfault.Fault{{
			Kind:   memfault.CFid,
			Victim: memfault.Cell{Addr: 5, Bit: 2}, Aggr: memfault.Cell{Addr: 5, Bit: 3},
			AggrRise: true, Forced: 1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	run := func(backgrounds int) bool {
		res, err := CompileContext(context.Background(), []memory.Config{cfg}, Options{Backgrounds: backgrounds})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(res, map[string]memory.RAM{"m0": mkFaulty()})
		if err != nil {
			t.Fatal(err)
		}
		return mustRun(t, eng).Pass
	}
	if !run(1) {
		t.Fatal("solid background unexpectedly caught the matched-polarity intra-word CFid")
	}
	if run(2) {
		t.Fatal("checkerboard pass missed the intra-word CFid")
	}
}

func TestPortBTestOption(t *testing.T) {
	mems := []memory.Config{
		{Name: "sp", Words: 1024, Bits: 8},
		{Name: "tp", Words: 256, Bits: 16, Kind: memory.TwoPort},
	}
	plain, err := CompileContext(context.Background(), mems, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withB, err := CompileContext(context.Background(), mems, Options{PortBTest: true})
	if err != nil {
		t.Fatal(err)
	}
	// GroupByKind: the tp group gains 4*256 cycles; parallel sessions ->
	// total is the max, still paced by the sp group (10*1024).
	if withB.Cycles < plain.Cycles {
		t.Fatalf("port-B test shortened the plan: %d vs %d", withB.Cycles, plain.Cycles)
	}
	var tpGroup = -1
	for i, g := range withB.Groups {
		if g.Name == "tp" {
			tpGroup = i
		}
	}
	if tpGroup < 0 || !withB.Groups[tpGroup].TestPortB {
		t.Fatal("tp group lost the port-B flag")
	}
	if got := GroupCycles(withB.Groups[tpGroup]); got != 10*256+4*256 {
		t.Fatalf("tp group cycles = %d", got)
	}
	// Self-test with a port-B defect: only the port-B plan catches it.
	faulty, err := memfault.NewFaulty(mems[1], []memfault.Fault{
		{Kind: memfault.SAB0, Victim: memfault.Cell{Addr: 7, Bit: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng1, err := NewEngine(plain, map[string]memory.RAM{"tp": faulty})
	if err != nil {
		t.Fatal(err)
	}
	if !mustRun(t, eng1).Pass {
		t.Fatal("plain plan saw the port-B fault")
	}
	faulty2, err := memfault.NewFaulty(mems[1], []memfault.Fault{
		{Kind: memfault.SAB0, Victim: memfault.Cell{Addr: 7, Bit: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := NewEngine(withB, map[string]memory.RAM{"tp": faulty2})
	if err != nil {
		t.Fatal(err)
	}
	if mustRun(t, eng2).Pass {
		t.Fatal("port-B plan missed the fault")
	}
}

// mustRun executes eng to completion; with no deadline RunContext cannot
// fail, so an error is a bug.
func mustRun(t *testing.T, eng *bist.Engine) bist.Result {
	t.Helper()
	res, err := eng.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}
