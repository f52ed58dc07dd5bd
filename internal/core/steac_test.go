package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"steac/internal/ate"

	"steac/internal/brains"
	"steac/internal/dsc"
	"steac/internal/memory"
	"steac/internal/pattern"
	"steac/internal/sched"
	"steac/internal/stil"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

func dscFlowInput(t *testing.T, verify bool) FlowInput {
	t.Helper()
	soc, err := dsc.BuildSOC()
	if err != nil {
		t.Fatal(err)
	}
	stils, err := EmitSTIL(dsc.Cores())
	if err != nil {
		t.Fatal(err)
	}
	return FlowInput{
		STIL:        stils,
		SOC:         soc,
		Resources:   dsc.Resources(),
		Memories:    dsc.Memories(),
		BISTOptions: brains.Options{Grouping: brains.GroupPerMemory},
		Verify:      verify,
	}
}

// TestDSCHeadlineNumbers reproduces the paper's §3 scheduling experiment:
// session-based beats non-session-based under the DSC's IO limit, with
// totals and gap in the published regime (paper: 4,371,194 vs 4,713,935
// cycles, a 7.3% saving).
func TestDSCHeadlineNumbers(t *testing.T) {
	res, err := RunFlowContext(context.Background(), dscFlowInput(t, false))
	if err != nil {
		t.Fatal(err)
	}
	sb, nsb := res.Schedule.TotalCycles, res.NonSession.TotalCycles
	if sb >= nsb {
		t.Fatalf("session-based %d did not beat non-session %d", sb, nsb)
	}
	if sb < 4300000 || sb > 4450000 {
		t.Fatalf("session-based total = %d, outside the paper's regime (4,371,194)", sb)
	}
	if nsb < 4600000 || nsb > 4950000 {
		t.Fatalf("non-session total = %d, outside the paper's regime (4,713,935)", nsb)
	}
	gain := 100 * float64(nsb-sb) / float64(nsb)
	if gain < 4 || gain > 13 {
		t.Fatalf("session-based saving = %.1f%%, paper reports 7.3%%", gain)
	}
	if res.Serial.TotalCycles <= sb {
		t.Fatal("serial baseline should be slowest")
	}
	// Control-IO analysis: 19 dedicated control pins for the three cores.
	s := testinfo.ShareControlIOs(res.Cores)
	if s.Dedicated != 19 {
		t.Fatalf("dedicated control IOs = %d, want the paper's 19", s.Dedicated)
	}
	if res.NonSession.ControlPinsMax != 23 { // 19 + 4 BIST pins
		t.Fatalf("non-session control = %d, want 23", res.NonSession.ControlPinsMax)
	}
}

func TestDSCInsertionAreas(t *testing.T) {
	res, err := RunFlowContext(context.Background(), dscFlowInput(t, false))
	if err != nil {
		t.Fatal(err)
	}
	ins := res.Insertion
	if ins == nil {
		t.Fatal("no insertion result")
	}
	// 221+104 + 25+40 + 165+104 = 659 boundary cells.
	if ins.WBRCells != 659 {
		t.Fatalf("WBR cells = %d, want 659", ins.WBRCells)
	}
	// Paper: controller ~371 gates, TAM mux ~132, overhead ~0.3%.  Ours
	// must land in the same small-glue regime.
	if ins.ControllerGates < 100 || ins.ControllerGates > 1200 {
		t.Fatalf("controller = %.0f gates", ins.ControllerGates)
	}
	// Ours lands below the paper's 132 because the optimizer found a
	// schedule where the two scan cores share one session (less wire
	// re-muxing across sessions); the order of magnitude is what matters.
	if ins.TAMGates < 20 || ins.TAMGates > 500 {
		t.Fatalf("TAM mux = %.0f gates", ins.TAMGates)
	}
	if ins.OverheadPct <= 0 || ins.OverheadPct > 1.0 {
		t.Fatalf("controller+TAM overhead = %.2f%%, paper ~0.3%%", ins.OverheadPct)
	}
	// "A new SOC design with DFT will be ready in minutes": ours must be
	// far below the paper's 5 minutes on a 2001 workstation.
	if ins.Elapsed.Seconds() > 60 {
		t.Fatalf("insertion took %s", ins.Elapsed)
	}
	if issues := ins.Design.Lint(); len(issues) != 0 {
		t.Fatalf("DFT netlist lint: %v", issues[0])
	}
}

// TestDSCFullVerification applies all ~4.4M translated tester cycles to the
// behavioural chip model (Fig. 1 end-to-end); RunFlow fails internally on
// any mismatch or cycle-count disagreement.
func TestDSCFullVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("full-chip ATE verification (~5s) skipped in -short")
	}
	res, err := RunFlowContext(context.Background(), dscFlowInput(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Verify == nil || !res.Verify.Pass {
		t.Fatal("verification missing or failed")
	}
	if res.Verify.Cycles != res.Schedule.TotalCycles {
		t.Fatalf("ATE cycles %d != schedule %d", res.Verify.Cycles, res.Schedule.TotalCycles)
	}
}

func TestFlowInputValidation(t *testing.T) {
	if _, err := RunFlowContext(context.Background(), FlowInput{}); err == nil {
		t.Fatal("empty input accepted")
	}
	stils, err := EmitSTIL(dsc.Cores())
	if err != nil {
		t.Fatal(err)
	}
	dup := FlowInput{STIL: append(stils, stils[0]), Resources: dsc.Resources()}
	if _, err := RunFlowContext(context.Background(), dup); err == nil {
		t.Fatal("duplicate core accepted")
	}
	bad := FlowInput{STIL: []string{"not stil"}, Resources: dsc.Resources()}
	if _, err := RunFlowContext(context.Background(), bad); err == nil {
		t.Fatal("malformed STIL accepted")
	}
	infeasible := FlowInput{STIL: stils, Resources: sched.Resources{
		TestPins: 4, FuncPins: 8, Partitioner: wrapper.LPT}}
	if _, err := RunFlowContext(context.Background(), infeasible); err == nil {
		t.Fatal("infeasible pin budget accepted")
	}
}

// A soft core's scan chains are a scheduling view: a flow that verifies
// or inserts one is refused with ErrSoftCore naming the core, while a
// schedule-only flow still runs.
func TestFlowRefusesSoftCores(t *testing.T) {
	in := dscFlowInput(t, false)
	c, err := stil.Parse(in.STIL[0])
	if err != nil {
		t.Fatal(err)
	}
	in.STIL = append([]string{strings.Replace(in.STIL[0], "soft=false", "soft=true", 1)}, in.STIL[1:]...)
	verify := FlowInput{STIL: in.STIL, Resources: in.Resources, Verify: true}
	for name, fi := range map[string]FlowInput{"insertion": in, "verify": verify} {
		_, err := RunFlowContext(context.Background(), fi)
		if !errors.Is(err, ErrSoftCore) || !strings.Contains(err.Error(), c.Name) {
			t.Errorf("%s: err = %v, want ErrSoftCore naming %s", name, err, c.Name)
		}
	}
	r, err := RunFlowContext(context.Background(), FlowInput{STIL: in.STIL, Resources: in.Resources})
	if err != nil || r.Schedule.TotalCycles <= 0 {
		t.Fatalf("schedule-only flow with a soft core: %v", err)
	}
}

func TestBISTGroupsMapping(t *testing.T) {
	b, err := brains.CompileContext(context.Background(), []memory.Config{
		{Name: "a", Words: 1024, Bits: 8},
		{Name: "b", Words: 512, Bits: 8, Kind: memory.TwoPort},
	}, brains.Options{Grouping: brains.GroupPerMemory})
	if err != nil {
		t.Fatal(err)
	}
	groups := BISTGroups(b)
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	// March C- 10N plus the controller's group-advance cycle.
	if groups[0].Cycles != 10*1024+1 {
		t.Fatalf("group cycles = %d", groups[0].Cycles)
	}
	if BISTGroups(nil) != nil {
		t.Fatal("nil result should map to nil groups")
	}
}

func TestReports(t *testing.T) {
	res, err := RunFlowContext(context.Background(), dscFlowInput(t, false))
	if err != nil {
		t.Fatal(err)
	}
	table1 := Table1(res.Cores)
	for _, want := range []string{"USB", "1,629", "716", "202,673", "235,696", "No scan"} {
		if !strings.Contains(table1, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, table1)
		}
	}
	cmp := ComparisonReport(res)
	for _, want := range []string{"session-based", "non-session-based", "serial", "saves"} {
		if !strings.Contains(cmp, want) {
			t.Fatalf("comparison missing %q", want)
		}
	}
	io := IOReport(res.Cores)
	if !strings.Contains(io, "19") {
		t.Fatalf("IO report missing the 19-pin total:\n%s", io)
	}
	area := AreaReport(res)
	for _, want := range []string{"WBR cell", "test controller", "TAM multiplexer", "memory BIST (logic)", "overhead"} {
		if !strings.Contains(area, want) {
			t.Fatalf("area report missing %q", want)
		}
	}
	sr := ScheduleReport(res.Schedule)
	if !strings.Contains(sr, "USB.scan") || !strings.Contains(sr, "total test time") {
		t.Fatalf("schedule report incomplete:\n%s", sr)
	}
	if AreaReport(&FlowResult{}) == "" {
		t.Fatal("empty-area report")
	}
}

// The EXTEST interconnect session integrates into the DSC flow: the
// schedule gains one session, the translated program verifies end to end,
// and glue defects are caught.
func TestDSCWithInterconnects(t *testing.T) {
	in := dscFlowInput(t, !testing.Short())
	in.Interconnects = dsc.Interconnects()
	res, err := RunFlowContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extest == nil {
		t.Fatal("no extest lane")
	}
	last := res.Schedule.Sessions[len(res.Schedule.Sessions)-1]
	if len(last.Placements) != 1 || last.Placements[0].Test.Kind != sched.ExtestKind {
		t.Fatalf("last session is not the extest session: %+v", last)
	}
	// 24 wires -> 2*ceil(log2(26)) = 10 vectors.
	if res.Extest.Vectors != 10 {
		t.Fatalf("extest vectors = %d, want 10", res.Extest.Vectors)
	}
	if res.Verify != nil && res.Verify.Cycles != res.Schedule.TotalCycles {
		t.Fatalf("verify cycles %d != schedule %d", res.Verify.Cycles, res.Schedule.TotalCycles)
	}
	// Insertion carried the extra session (controller + TAM routes).
	if res.Insertion.CtlSpec.Sessions != len(res.Schedule.Sessions) {
		t.Fatalf("controller sessions = %d, schedule has %d",
			res.Insertion.CtlSpec.Sessions, len(res.Schedule.Sessions))
	}
	// A glue open must be caught by the translated program.
	chip := ate.NewChip(res.Program, res.Cores, ate.WithOpenInterconnect(7))
	r, err := ate.Run(res.Program, chip)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Fatal("glue open undetected")
	}
}

func TestTimelineReport(t *testing.T) {
	res, err := RunFlowContext(context.Background(), dscFlowInput(t, false))
	if err != nil {
		t.Fatal(err)
	}
	tl := TimelineReport(res.Schedule, 60)
	if !strings.Contains(tl, "USB.scan") || !strings.Contains(tl, "#") {
		t.Fatalf("timeline incomplete:\n%s", tl)
	}
	lines := strings.Split(tl, "\n")
	if len(lines) < len(res.Schedule.Sessions)+2 {
		t.Fatalf("timeline too short:\n%s", tl)
	}
	if TimelineReport(&sched.Schedule{Kind: "empty"}, 5) == "" {
		t.Fatal("empty timeline")
	}
}

// A STIL file carrying explicit vectors drives the flow directly (no ATPG
// substitute), and the translated program still verifies.
func TestFlowWithExplicitVectors(t *testing.T) {
	c := &testinfo.Core{
		Name:        "VEC",
		Clocks:      []string{"ck"},
		ScanEnables: []string{"se"},
		PIs:         3, POs: 2,
		ScanChains: []testinfo.ScanChain{{Name: "c0", Length: 4, In: "si", Out: "so", Clock: "ck"}},
		Patterns:   []testinfo.PatternSet{{Name: "scan", Type: testinfo.Scan, Count: 3, Seed: 99}},
	}
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
	res, err := RunFlowContext(context.Background(), FlowInput{
		STIL:      []string{src},
		Resources: sched.Resources{TestPins: 10, FuncPins: 4, Partitioner: wrapper.LPT},
		Verify:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Sources["VEC"].(*pattern.ExplicitSource); !ok {
		t.Fatalf("source is %T, want explicit", res.Sources["VEC"])
	}
	if !res.Verify.Pass {
		t.Fatal("explicit-vector flow failed verification")
	}
	// A count mismatch is rejected.
	bad, err := stil.EmitWithVectors(c, pattern.ToSTIL(c, scan[:2], fn))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFlowContext(context.Background(), FlowInput{STIL: []string{bad},
		Resources: sched.Resources{TestPins: 10, FuncPins: 4, Partitioner: wrapper.LPT}}); err == nil {
		t.Fatal("vector/count mismatch accepted")
	}
}

// The whole flow is deterministic: two runs produce identical schedules,
// programs and netlists.
func TestFlowDeterminism(t *testing.T) {
	r1, err := RunFlowContext(context.Background(), dscFlowInput(t, false))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunFlowContext(context.Background(), dscFlowInput(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Schedule.TotalCycles != r2.Schedule.TotalCycles ||
		len(r1.Schedule.Sessions) != len(r2.Schedule.Sessions) {
		t.Fatal("schedule differs between runs")
	}
	v1, err := r1.Insertion.Design.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r2.Insertion.Design.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("DFT netlist differs between runs")
	}
	if r1.Program.TotalCycles() != r2.Program.TotalCycles() {
		t.Fatal("program differs between runs")
	}
}
