package sched_test

import (
	"context"
	"testing"

	"steac/internal/scenario"
	"steac/internal/sched"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// The paper's chip for the scheduler tests: Table 1's cores come from the
// dsc scenario, the one place they are written down.  The BIST groups and
// the pin budget are scheduling fixtures of these tests, not chip data.

// dscCores returns the dsc chip's cores: USB, TV, JPEG.
func dscCores(t *testing.T) []*testinfo.Core {
	t.Helper()
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		t.Fatal(err)
	}
	return chip.Cores
}

// dscCore returns the dsc chip's core of that name.
func dscCore(t *testing.T, name string) *testinfo.Core {
	t.Helper()
	for _, c := range dscCores(t) {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("dsc chip has no core %s", name)
	return nil
}

// threeGroups is a three-group memory-BIST load.
func threeGroups() []sched.BISTGroup {
	return []sched.BISTGroup{
		{Name: "g0", Cycles: 250000, Power: 3},
		{Name: "g1", Cycles: 150000, Power: 2},
		{Name: "g2", Cycles: 200000, Power: 2},
	}
}

// pins28 is a 28-test-pin, 96-functional-pin budget with no power bound.
func pins28() sched.Resources {
	return sched.Resources{TestPins: 28, FuncPins: 96, MaxPower: 0, Partitioner: wrapper.LPT}
}

func TestBuildTests(t *testing.T) {
	tests, err := sched.BuildTests(dscCores(t), threeGroups())
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]sched.Kind)
	for _, x := range tests {
		ids[x.ID] = x.Kind
	}
	for id, k := range map[string]sched.Kind{
		"USB.scan": sched.ScanKind, "TV.scan": sched.ScanKind, "TV.func": sched.FuncKind,
		"JPEG.func": sched.FuncKind, "bist.g0": sched.BISTKind,
	} {
		if got, ok := ids[id]; !ok || got != k {
			t.Fatalf("test %s missing or wrong kind (%v)", id, got)
		}
	}
	if len(tests) != 7 {
		t.Fatalf("tests = %d, want 7", len(tests))
	}
	if _, err := sched.BuildTests(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := sched.BuildTests(nil, []sched.BISTGroup{{Name: "z", Cycles: 0}}); err == nil {
		t.Fatal("zero-cycle BIST group accepted")
	}
}

func TestScanCyclesAndSaturation(t *testing.T) {
	usb := dscCore(t, "USB")
	c4, err := sched.ScanCycles(usb, 4, wrapper.LPT)
	if err != nil {
		t.Fatal(err)
	}
	if c4 != 1168709 {
		t.Fatalf("USB scan at w=4 = %d, want 1168709", c4)
	}
	sat, err := sched.SaturationWidth(usb, 8, wrapper.LPT)
	if err != nil {
		t.Fatal(err)
	}
	// The 1629-bit chain dominates from width 2 on.
	if sat != 2 {
		t.Fatalf("saturation width = %d, want 2", sat)
	}
	c2, err := sched.ScanCycles(usb, 2, wrapper.LPT)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c4 {
		t.Fatalf("width 2 vs 4: %d vs %d", c2, c4)
	}
}

func TestControlPins(t *testing.T) {
	cores := dscCores(t)
	if got := sched.ControlPins(cores, false, false); got != 19 {
		t.Fatalf("dedicated control = %d, want the paper's 19", got)
	}
	if got := sched.ControlPins(cores, false, true); got != 14 {
		t.Fatalf("shared control = %d, want 14", got)
	}
	if got := sched.ControlPins(cores, true, true); got != 18 {
		t.Fatalf("shared control + BIST = %d, want 18", got)
	}
}

func TestSessionBasedDSC(t *testing.T) {
	tests, err := sched.BuildTests(dscCores(t), threeGroups())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.SessionBasedContext(context.Background(), tests, pins28())
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != "session-based" {
		t.Fatal("kind")
	}
	sum := 0
	placed := make(map[string]bool)
	for _, sess := range s.Sessions {
		sum += sess.Cycles
		if sess.ControlPins+2*widthSum(sess) > pins28().TestPins {
			t.Fatalf("session %d exceeds pin budget: ctrl %d, data %d",
				sess.Index, sess.ControlPins, 2*widthSum(sess))
		}
		for _, p := range sess.Placements {
			placed[p.Test.ID] = true
			if p.Cycles <= 0 {
				t.Fatalf("placement %s has %d cycles", p.Test.ID, p.Cycles)
			}
		}
	}
	if sum != s.TotalCycles {
		t.Fatalf("total %d != session sum %d", s.TotalCycles, sum)
	}
	if len(placed) != len(tests) {
		t.Fatalf("placed %d of %d tests", len(placed), len(tests))
	}
}

func widthSum(s sched.Session) int {
	w := 0
	for _, p := range s.Placements {
		w += p.Width
	}
	return w
}

// The paper's central claim: under a tight test-IO budget, session-based
// scheduling (shared control IOs) beats the non-session baseline (dedicated
// control IOs -> starved TAM).
func TestSessionBeatsNonSessionUnderTightPins(t *testing.T) {
	tests, err := sched.BuildTests(dscCores(t), threeGroups())
	if err != nil {
		t.Fatal(err)
	}
	res := sched.Resources{TestPins: 25, FuncPins: 96, Partitioner: wrapper.LPT}
	sb, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		t.Fatal(err)
	}
	nsb, err := sched.NonSessionBased(tests, res)
	if err != nil {
		t.Fatal(err)
	}
	if sb.TotalCycles >= nsb.TotalCycles {
		t.Fatalf("session-based %d not better than non-session %d",
			sb.TotalCycles, nsb.TotalCycles)
	}
	// Control-pin accounting: 19 core pins + 4 BIST dedicated vs shared.
	if nsb.ControlPinsMax != 23 {
		t.Fatalf("non-session control pins = %d, want 23", nsb.ControlPinsMax)
	}
	if sb.ControlPinsMax >= nsb.ControlPinsMax {
		t.Fatalf("sharing did not reduce control pins: %d vs %d",
			sb.ControlPinsMax, nsb.ControlPinsMax)
	}
}

// With generous pins, the non-session packer may win (full overlap), which
// is the paper's other observation: "there are also cases when parallel
// testing leads to shorter test time than serial testing".
func TestNonSessionWinsWithGenerousPins(t *testing.T) {
	tests, err := sched.BuildTests(dscCores(t), threeGroups())
	if err != nil {
		t.Fatal(err)
	}
	res := sched.Resources{TestPins: 60, FuncPins: 512, Partitioner: wrapper.LPT}
	sb, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		t.Fatal(err)
	}
	nsb, err := sched.NonSessionBased(tests, res)
	if err != nil {
		t.Fatal(err)
	}
	if nsb.TotalCycles > sb.TotalCycles {
		t.Fatalf("with generous pins non-session (%d) should not lose to session-based (%d)",
			nsb.TotalCycles, sb.TotalCycles)
	}
}

func TestSessionNeverWorseThanSerial(t *testing.T) {
	tests, err := sched.BuildTests(dscCores(t), threeGroups())
	if err != nil {
		t.Fatal(err)
	}
	for _, pins := range []int{26, 28, 40, 60} {
		res := sched.Resources{TestPins: pins, FuncPins: 128, Partitioner: wrapper.LPT}
		sb, err := sched.SessionBasedContext(context.Background(), tests, res)
		if err != nil {
			t.Fatal(err)
		}
		ser, err := sched.Serial(tests, res)
		if err != nil {
			t.Fatal(err)
		}
		if sb.TotalCycles > ser.TotalCycles {
			t.Fatalf("pins=%d: session-based %d worse than serial %d",
				pins, sb.TotalCycles, ser.TotalCycles)
		}
	}
}

func TestPowerConstraintSerializes(t *testing.T) {
	bist := []sched.BISTGroup{
		{Name: "hot1", Cycles: 500000, Power: 10},
		{Name: "hot2", Cycles: 500000, Power: 10},
	}
	tests, err := sched.BuildTests([]*testinfo.Core{dscCore(t, "USB")}, bist)
	if err != nil {
		t.Fatal(err)
	}
	free := sched.Resources{TestPins: 40, FuncPins: 64, Partitioner: wrapper.LPT}
	bound := free
	bound.MaxPower = 12 // USB scan (~3) + one hot group, never both groups with a core
	sFree, err := sched.SessionBasedContext(context.Background(), tests, free)
	if err != nil {
		t.Fatal(err)
	}
	sBound, err := sched.SessionBasedContext(context.Background(), tests, bound)
	if err != nil {
		t.Fatal(err)
	}
	if sBound.TotalCycles < sFree.TotalCycles {
		t.Fatalf("power bound produced a faster schedule: %d vs %d",
			sBound.TotalCycles, sFree.TotalCycles)
	}
	for _, sess := range sBound.Sessions {
		if !sched.AlmostLE(sess.PeakPower, 12) {
			t.Fatalf("session peak power %.1f exceeds bound", sess.PeakPower)
		}
	}
}

func TestInfeasiblePins(t *testing.T) {
	tests, err := sched.BuildTests(dscCores(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := sched.Resources{TestPins: 5, FuncPins: 64, Partitioner: wrapper.LPT}
	if _, err := sched.SessionBasedContext(context.Background(), tests, res); err == nil {
		t.Fatal("5-pin budget accepted by session scheduler")
	}
	if _, err := sched.NonSessionBased(tests, res); err == nil {
		t.Fatal("5-pin budget accepted by non-session scheduler")
	}
}

func TestSerialStructure(t *testing.T) {
	tests, err := sched.BuildTests(dscCores(t), threeGroups())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Serial(tests, pins28())
	if err != nil {
		t.Fatal(err)
	}
	// 3 core sessions + 3 BIST sessions.
	if len(s.Sessions) != 6 {
		t.Fatalf("serial sessions = %d, want 6", len(s.Sessions))
	}
	if _, _, ok := s.PlacementFor("USB.scan"); !ok {
		t.Fatal("USB.scan missing from serial schedule")
	}
}

func TestNonSessionRespectsPrecedence(t *testing.T) {
	tests, err := sched.BuildTests([]*testinfo.Core{dscCore(t, "TV")}, threeGroups())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NonSessionBased(tests, pins28())
	if err != nil {
		t.Fatal(err)
	}
	var scanEnd, funcStart int
	bistSpans := map[string][2]int{}
	for _, p := range s.Sessions[0].Placements {
		switch p.Test.ID {
		case "TV.scan":
			scanEnd = p.End()
		case "TV.func":
			funcStart = p.Start
		default:
			bistSpans[p.Test.ID] = [2]int{p.Start, p.End()}
		}
	}
	if funcStart < scanEnd {
		t.Fatalf("TV.func started at %d before scan ended at %d", funcStart, scanEnd)
	}
	// BIST groups form a serial chain.
	var spans [][2]int
	for _, sp := range bistSpans {
		spans = append(spans, sp)
	}
	for i := range spans {
		for j := range spans {
			if i != j && spans[i][0] < spans[j][1] && spans[j][0] < spans[i][1] {
				t.Fatalf("BIST groups overlap: %v vs %v", spans[i], spans[j])
			}
		}
	}
}

func TestUtilization(t *testing.T) {
	tests, err := sched.BuildTests(dscCores(t), threeGroups())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sched.SessionBasedContext(context.Background(), tests, pins28())
	if err != nil {
		t.Fatal(err)
	}
	ser, err := sched.Serial(tests, pins28())
	if err != nil {
		t.Fatal(err)
	}
	if u := sb.Utilization(); u <= 0 {
		t.Fatalf("utilization = %v", u)
	}
	// Parallel sessions pack more test activity per cycle than serial.
	if sb.Utilization() < ser.Utilization() {
		t.Fatalf("session-based utilization %.2f below serial %.2f",
			sb.Utilization(), ser.Utilization())
	}
	if (&sched.Schedule{}).Utilization() != 0 {
		t.Fatal("empty schedule utilization")
	}
}
