package wrapper

import (
	"testing"

	"steac/internal/netlist"
	"steac/internal/testinfo"
)

func TestWBRCellArea(t *testing.T) {
	d := netlist.NewDesign("d", nil)
	if _, err := GenerateWBRCell(d); err != nil {
		t.Fatal(err)
	}
	a, err := d.Area(WBRCellName)
	if err != nil {
		t.Fatal(err)
	}
	if a != WBRCellGates {
		t.Fatalf("WBR cell area = %v gates, paper reports %d", a, WBRCellGates)
	}
	// Idempotent.
	if _, err := GenerateWBRCell(d); err != nil {
		t.Fatal(err)
	}
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("WBR lint: %v", issues)
	}
}

func TestWBRCellBehaviour(t *testing.T) {
	d := netlist.NewDesign("d", nil)
	if _, err := GenerateWBRCell(d); err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewSimulator(d, WBRCellName)
	if err != nil {
		t.Fatal(err)
	}
	tick := func() {
		t.Helper()
		if err := sim.Tick("WRCK"); err != nil {
			t.Fatal(err)
		}
	}
	settle := func() {
		t.Helper()
		if err := sim.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	// Functional transparency: MODE=0 passes CFI to CFO.
	sim.Set("CFI", true)
	sim.Set("MODE", false)
	settle()
	if !sim.Get("CFO") {
		t.Fatal("MODE=0 not transparent")
	}
	// Shift: CTI reaches CTO after one WRCK.
	sim.Set("SHIFT", true)
	sim.Set("CTI", true)
	tick()
	if !sim.Get("CTO") {
		t.Fatal("shift did not load CTI")
	}
	// Update transfers the shift flop to the update latch; MODE=1 drives
	// CFO from it.
	if err := sim.Tick("UPDATE"); err != nil {
		t.Fatal(err)
	}
	sim.Set("MODE", true)
	sim.Set("CFI", false)
	settle()
	if !sim.Get("CFO") {
		t.Fatal("MODE=1 did not drive update value")
	}
	// SAFE forces the safe (0) value.
	sim.Set("SAFE", true)
	settle()
	if sim.Get("CFO") {
		t.Fatal("SAFE did not force 0")
	}
	sim.Set("SAFE", false)
	// Capture: SHIFT=0 captures CFI into the shift flop.
	sim.Set("SHIFT", false)
	sim.Set("CFI", true)
	tick()
	if !sim.Get("CTO") {
		t.Fatal("capture did not load CFI")
	}
}

// tinyCore declares a 2-PI/2-PO core with one 3-bit scan chain and builds a
// real structural implementation so the wrapped design can be simulated.
func tinyCore(t *testing.T, d *netlist.Design) *testinfo.Core {
	t.Helper()
	core := &testinfo.Core{
		Name:        "TINY",
		Clocks:      []string{"ck"},
		ScanEnables: []string{"se"},
		PIs:         2, POs: 2,
		ScanChains: []testinfo.ScanChain{{Name: "c0", Length: 3, In: "si0", Out: "so0", Clock: "ck"}},
		Patterns:   []testinfo.PatternSet{{Name: "scan", Type: testinfo.Scan, Count: 4, Seed: 5}},
	}
	m := netlist.NewModule(CoreModuleName(core.Name))
	m.MustPort("pi", netlist.In, 2)
	m.MustPort("po", netlist.Out, 2)
	m.MustPort("si0", netlist.In, 1)
	m.MustPort("so0", netlist.Out, 1)
	m.MustPort("ck", netlist.In, 1)
	m.MustPort("se", netlist.In, 1)
	// Chain: f0 -> f1 -> f2 (so0 = f2.Q).  Functional D: f0 <= pi0,
	// f1 <= q0, f2 <= pi1 XOR q1.
	m.MustInstance("f0", netlist.CellSDFF,
		netlist.Pins{{"D", "pi[0]"}, {"SI", "si0"}, {"SE", "se"}, {"CK", "ck"}, {"Q", "q0"}})
	m.MustInstance("f1", netlist.CellSDFF,
		netlist.Pins{{"D", "q0"}, {"SI", "q0x"}, {"SE", "se"}, {"CK", "ck"}, {"Q", "q1"}})
	m.MustInstance("fb0", netlist.CellBuf, netlist.Pins{{"A", "q0"}, {"Z", "q0x"}})
	m.MustInstance("x2", netlist.CellXor2, netlist.Pins{{"A", "pi[1]"}, {"B", "q1"}, {"Z", "d2"}})
	m.MustInstance("f2", netlist.CellSDFF,
		netlist.Pins{{"D", "d2"}, {"SI", "q1x"}, {"SE", "se"}, {"CK", "ck"}, {"Q", "so0"}})
	m.MustInstance("fb1", netlist.CellBuf, netlist.Pins{{"A", "q1"}, {"Z", "q1x"}})
	// po0 = q2 (so0), po1 = q0 AND pi1.
	m.MustInstance("ob0", netlist.CellBuf, netlist.Pins{{"A", "so0"}, {"Z", "po[0]"}})
	m.MustInstance("oa1", netlist.CellAnd2, netlist.Pins{{"A", "q0"}, {"B", "pi[1]"}, {"Z", "po[1]"}})
	d.MustAddModule(m)
	return core
}

// TestWrapperIntestGateLevel loads a full wrapper-chain vector, captures,
// and unloads, comparing the generated hardware against a Go reference of
// the 7-cell serial path [ib0 ib1 f0 f1 f2 ob0 ob1].
func TestWrapperIntestGateLevel(t *testing.T) {
	d := netlist.NewDesign("d", nil)
	core := tinyCore(t, d)
	plan, err := DesignChains(core, 1, LPT)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(d, core, plan)
	if err != nil {
		t.Fatal(err)
	}
	if gen.WBRCells != 4 {
		t.Fatalf("WBR cells = %d, want 4", gen.WBRCells)
	}
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("wrapper lint: %v", issues)
	}
	// Bench ties the core clock and the wrapper clock to one test clock,
	// as the chip-level test controller does.
	bench := netlist.NewModule("bench")
	for _, p := range []string{"wrck", "shift", "update", "mode", "safe",
		"shiftwir", "updatewir", "se", "wsi"} {
		bench.MustPort(p, netlist.In, 1)
	}
	bench.MustPort("pi", netlist.In, 2)
	bench.MustPort("po", netlist.Out, 2)
	bench.MustPort("wso", netlist.Out, 1)
	bench.MustPort("wirso", netlist.Out, 1)
	bench.MustInstance("u_wrap", "wrap_TINY", netlist.Pins{
		{"pi[0]", "pi[0]"}, {"pi[1]", "pi[1]"}, {"po[0]", "po[0]"}, {"po[1]", "po[1]"},
		{"wrck", "wrck"}, {"ck", "wrck"}, {"shift", "shift"}, {"update", "update"},
		{"mode", "mode"}, {"safe", "safe"}, {"shiftwir", "shiftwir"},
		{"updatewir", "updatewir"}, {"se", "se"}, {"wsi", "wsi"}, {"wso", "wso"},
		{"wirso", "wirso"},
	})
	d.MustAddModule(bench)
	d.Top = "bench"
	sim, err := netlist.NewSimulator(d, "bench")
	if err != nil {
		t.Fatal(err)
	}
	tick := func(net string) {
		t.Helper()
		if err := sim.Tick(net); err != nil {
			t.Fatal(err)
		}
	}
	// The wrapper routes wsi -> ib0 -> ib1 -> f0 -> f1 -> f2 -> ob0 -> ob1 -> wso.
	load := []bool{true, false, true, true, false, true, false}
	sim.Set("mode", true)
	sim.Set("safe", false)
	sim.Set("shift", true)
	sim.Set("se", true)
	for i := 0; i < 7; i++ {
		sim.Set("wsi", load[i])
		tick("wrck")
	}
	// After 7 shifts, cell k holds load[6-k]: ib0=load[6], ib1=load[5],
	// f0..f2 = load[4..2], ob0=load[1], ob1=load[0].
	cells := []bool{load[6], load[5], load[4], load[3], load[2], load[1], load[0]}
	// Update transfers in-cell stimulus to the core inputs.
	tick("update")
	pi0, pi1 := cells[0], cells[1]
	q0, q1, q2 := cells[2], cells[3], cells[4]
	// Capture with shift off.
	sim.Set("shift", false)
	sim.Set("se", false)
	tick("wrck")
	// Expected capture: f0<=pi0, f1<=q0, f2<=pi1^q1; out-cells capture
	// core POs computed from pre-capture state: po0=q2, po1=q0&&pi1.
	want := []bool{q0 && pi1, q2, pi1 != q1, q0, pi0}
	// Unload order from wso: ob1, ob0, f2, f1, f0 (then in-cells).
	sim.Set("shift", true)
	sim.Set("se", true)
	var got []bool
	for i := 0; i < 5; i++ {
		if err := sim.Settle(); err != nil {
			t.Fatal(err)
		}
		got = append(got, sim.Get("wso"))
		sim.Set("wsi", false)
		tick("wrck")
	}
	// got[0] is ob1's pre-shift content... the first observed bit is the
	// value sitting in ob1 after capture.
	// want order: [ob1, ob0, f2, f1, f0].
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unload bit %d = %v, want %v (got %v, want %v)", i, got[i], want[i], got, want)
		}
	}
}

func TestGenerateWrapperAreaAndCellCount(t *testing.T) {
	d := netlist.NewDesign("d", nil)
	core := &testinfo.Core{
		Name: "MID", Clocks: []string{"ck"}, ScanEnables: []string{"se"},
		PIs: 25, POs: 40,
		ScanChains: []testinfo.ScanChain{
			{Name: "c0", Length: 57, In: "si0", Out: "so0", Clock: "ck"},
			{Name: "c1", Length: 56, In: "si1", Out: "so1", Clock: "ck"},
		},
		Patterns: []testinfo.PatternSet{{Name: "s", Type: testinfo.Scan, Count: 9, Seed: 1}},
	}
	plan, err := DesignChains(core, 2, LPT)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(d, core, plan)
	if err != nil {
		t.Fatal(err)
	}
	if gen.WBRCells != 65 {
		t.Fatalf("WBR cells = %d, want 65", gen.WBRCells)
	}
	// Wrapper gates are dominated by 65 cells x 26 gates.
	if gen.WrapperGates < 65*26 {
		t.Fatalf("wrapper gates = %v, want >= %d", gen.WrapperGates, 65*26)
	}
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("lint: %v", issues)
	}
}

func TestGenerateWrapperErrors(t *testing.T) {
	d := netlist.NewDesign("d", nil)
	core := usbCore()
	plan, err := DesignChains(core, 4, LPT)
	if err != nil {
		t.Fatal(err)
	}
	plan.Core = "other"
	if _, err := Generate(d, core, plan); err == nil {
		t.Fatal("mismatched plan accepted")
	}
	soft := usbCore()
	soft.Soft = true
	softPlan, err := DesignChains(soft, 4, LPT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(d, soft, softPlan); err == nil {
		t.Fatal("soft plan accepted for structural generation")
	}
}

func TestCoreAreaGates(t *testing.T) {
	small := CoreAreaGates(&testinfo.Core{Name: "s", Clocks: []string{"ck"}, PIs: 4, POs: 4})
	big := CoreAreaGates(usbCore())
	if big <= small {
		t.Fatal("core area model not monotone")
	}
}

// Programming the WIR to BYPASS switches wrapper chain 0's serial path to
// the one-bit WBY register.
func TestWrapperBypassGateLevel(t *testing.T) {
	d := netlist.NewDesign("d", nil)
	core := tinyCore(t, d)
	plan, err := DesignChains(core, 1, LPT)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(d, core, plan); err != nil {
		t.Fatal(err)
	}
	bench := netlist.NewModule("bench")
	for _, p := range []string{"wrck", "shift", "update", "mode", "safe",
		"shiftwir", "updatewir", "se", "wsi"} {
		bench.MustPort(p, netlist.In, 1)
	}
	bench.MustPort("pi", netlist.In, 2)
	bench.MustPort("po", netlist.Out, 2)
	bench.MustPort("wso", netlist.Out, 1)
	bench.MustPort("wirso", netlist.Out, 1)
	bench.MustInstance("u_wrap", "wrap_TINY", netlist.Pins{
		{"pi[0]", "pi[0]"}, {"pi[1]", "pi[1]"}, {"po[0]", "po[0]"}, {"po[1]", "po[1]"},
		{"wrck", "wrck"}, {"ck", "wrck"}, {"shift", "shift"}, {"update", "update"},
		{"mode", "mode"}, {"safe", "safe"}, {"shiftwir", "shiftwir"},
		{"updatewir", "updatewir"}, {"se", "se"}, {"wsi", "wsi"}, {"wso", "wso"},
		{"wirso", "wirso"},
	})
	d.MustAddModule(bench)
	d.Top = "bench"
	sim, err := netlist.NewSimulator(d, "bench")
	if err != nil {
		t.Fatal(err)
	}
	tick := func(net string) {
		t.Helper()
		if err := sim.Tick(net); err != nil {
			t.Fatal(err)
		}
	}
	// Program the WIR with the BYPASS code (3 = q1q0 = 11): shift three 1s
	// through the instruction register, then update.
	sim.Set("shiftwir", true)
	sim.Set("wsi", true)
	for i := 0; i < 3; i++ {
		tick("wrck")
	}
	sim.Set("shiftwir", false)
	tick("updatewir")
	// Now the serial path is the single WBY flop: wsi appears on wso after
	// exactly one WRCK, regardless of the 7-cell boundary chain.
	sim.Set("shift", false)
	sim.Set("se", false)
	for _, bit := range []bool{true, false, true, true, false} {
		sim.Set("wsi", bit)
		tick("wrck")
		if err := sim.Settle(); err != nil {
			t.Fatal(err)
		}
		if sim.Get("wso") != bit {
			t.Fatalf("bypass did not delay wsi by one cycle (bit %v)", bit)
		}
	}
	// Back to INTEST (code 0): the long chain is selected again.
	sim.Set("shiftwir", true)
	sim.Set("wsi", false)
	for i := 0; i < 3; i++ {
		tick("wrck")
	}
	sim.Set("shiftwir", false)
	tick("updatewir")
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	// With an all-zero chain, wso is 0 even while wsi toggles.
	sim.Set("wsi", true)
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	if sim.Get("wso") {
		t.Fatal("INTEST path not restored after bypass")
	}
}
