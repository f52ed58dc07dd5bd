package insertion

import (
	"context"
	"strings"
	"testing"

	"steac/internal/brains"
	"steac/internal/memory"
	"steac/internal/netlist"
	"steac/internal/sched"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

func smallCore() *testinfo.Core {
	return &testinfo.Core{
		Name:        "CPU",
		Clocks:      []string{"ck"},
		Resets:      []string{"rst"},
		ScanEnables: []string{"se"},
		TestEnables: []string{"te"},
		PIs:         8, POs: 6,
		ScanChains: []testinfo.ScanChain{
			{Name: "c0", Length: 17, In: "si0", Out: "so0", Clock: "ck"},
			{Name: "c1", Length: 9, In: "si1", Out: "so1", Clock: "ck"},
		},
		Patterns: []testinfo.PatternSet{
			{Name: "scan", Type: testinfo.Scan, Count: 6, Seed: 77},
			{Name: "func", Type: testinfo.Functional, Count: 20, Seed: 78},
		},
	}
}

func smallSOC(t *testing.T, core *testinfo.Core) *netlist.Design {
	t.Helper()
	d := netlist.NewDesign("mini", nil)
	if _, err := wrapper.GenerateCoreModule(d, core); err != nil {
		t.Fatal(err)
	}
	glue := netlist.NewModule("glue")
	glue.Behavioral = true
	glue.AreaOverride = 5000
	glue.MustPort("clk", netlist.In, 1)
	d.MustAddModule(glue)

	top := netlist.NewModule("soc")
	top.MustPort("clk", netlist.In, 1)
	top.MustPort("rst", netlist.In, 1)
	top.MustPort("pi", netlist.In, core.PIs)
	top.MustPort("po", netlist.Out, core.POs)
	conns := map[string]string{"ck": "clk", "rst": "rst"}
	for i := 0; i < core.PIs; i++ {
		conns[netlist.BitName("pi", i, core.PIs)] = netlist.BitName("pi", i, core.PIs)
	}
	for i := 0; i < core.POs; i++ {
		conns[netlist.BitName("po", i, core.POs)] = netlist.BitName("po", i, core.POs)
	}
	top.MustInstance("u_CPU", wrapper.CoreModuleName(core.Name), conns)
	top.MustInstance("u_glue", "glue", map[string]string{"clk": "clk"})
	d.MustAddModule(top)
	d.Top = "soc"
	return d
}

func schedule(t *testing.T, core *testinfo.Core, bist []sched.BISTGroup) (*sched.Schedule, sched.Resources) {
	t.Helper()
	res := sched.Resources{TestPins: 20, FuncPins: 16, Partitioner: wrapper.LPT}
	tests, err := sched.BuildTests([]*testinfo.Core{core}, bist)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

func TestInsertWithoutBIST(t *testing.T) {
	core := smallCore()
	soc := smallSOC(t, core)
	s, res := schedule(t, core, nil)
	ins, err := Insert(soc, []*testinfo.Core{core}, s, res, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if issues := ins.Design.Lint(); len(issues) != 0 {
		t.Fatalf("lint: %v", issues)
	}
	if ins.Top.Name != "soc_dft" {
		t.Fatalf("top = %s", ins.Top.Name)
	}
	// Core instance replaced by its wrapped version.
	var inst *netlist.Instance
	for _, i := range ins.Top.Instances {
		if i.Name == "u_CPU" {
			inst = i
		}
	}
	if inst == nil || inst.Of != "wrap_CPU" {
		t.Fatalf("core instance not wrapped: %+v", inst)
	}
	if ins.WBRCells != core.PIs+core.POs {
		t.Fatalf("WBR cells = %d, want %d", ins.WBRCells, core.PIs+core.POs)
	}
	if ins.ControllerGates <= 0 || ins.TAMGates <= 0 {
		t.Fatalf("areas: ctl %.0f tam %.0f", ins.ControllerGates, ins.TAMGates)
	}
	if ins.ChipLogicGates <= 0 || ins.OverheadPct <= 0 {
		t.Fatalf("chip %.0f overhead %.2f", ins.ChipLogicGates, ins.OverheadPct)
	}
	v, err := ins.Design.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"module soc_dft", "tacs", "tammux", "wrap_CPU"} {
		if !strings.Contains(v, want) {
			t.Fatalf("emitted DFT netlist missing %q", want)
		}
	}
}

func TestInsertWithBIST(t *testing.T) {
	core := smallCore()
	soc := smallSOC(t, core)
	b, err := brains.CompileContext(context.Background(), []memory.Config{
		{Name: "m0", Words: 256, Bits: 8},
		{Name: "m1", Words: 128, Bits: 16, Kind: memory.TwoPort},
	}, brains.Options{})
	if err != nil {
		t.Fatal(err)
	}
	groups := make([]sched.BISTGroup, len(b.Groups))
	for i, g := range b.Groups {
		groups[i] = sched.BISTGroup{Name: g.Name, Cycles: brains.GroupCycles(g) + 1,
			Power: brains.GroupPower(g)}
	}
	s, res := schedule(t, core, groups)
	ins, err := Insert(soc, []*testinfo.Core{core}, s, res, b.Design, b.Top.Name)
	if err != nil {
		t.Fatal(err)
	}
	if issues := ins.Design.Lint(); len(issues) != 0 {
		t.Fatalf("lint: %v", issues)
	}
	if ins.BISTGates <= 0 {
		t.Fatal("BIST area missing")
	}
	if ins.Design.Module("membist") == nil {
		t.Fatal("BIST subsystem not merged")
	}
	if ins.Top.Instance("u_membist") == nil {
		t.Fatal("BIST not instantiated")
	}
}

func TestInsertErrors(t *testing.T) {
	core := smallCore()
	s, res := schedule(t, core, nil)
	if _, err := Insert(nil, []*testinfo.Core{core}, s, res, nil, ""); err == nil {
		t.Fatal("nil design accepted")
	}
	empty := netlist.NewDesign("e", nil)
	if _, err := Insert(empty, []*testinfo.Core{core}, s, res, nil, ""); err == nil {
		t.Fatal("design without top accepted")
	}
	// Merge collision: BIST design sharing a module name with the SOC.
	soc := smallSOC(t, core)
	coll := netlist.NewDesign("c", nil)
	g := netlist.NewModule("glue")
	g.Behavioral = true
	coll.MustAddModule(g)
	if _, err := Insert(soc, []*testinfo.Core{core}, s, res, coll, "glue"); err == nil {
		t.Fatal("merge collision accepted")
	}
}

// The full DFT netlist survives Verilog emit -> parse -> emit (fixed
// point), so the inserted design can be handed off as a file.
func TestDFTNetlistVerilogRoundTrip(t *testing.T) {
	core := smallCore()
	soc := smallSOC(t, core)
	s, res := schedule(t, core, nil)
	ins, err := Insert(soc, []*testinfo.Core{core}, s, res, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ins.Design.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	back, err := netlist.ParseVerilog(v1, nil)
	if err != nil {
		t.Fatal(err)
	}
	back.Top = ins.Design.Top
	v2, err := back.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("DFT netlist round trip is not a fixed point")
	}
	if issues := back.Lint(); len(issues) != 0 {
		t.Fatalf("parsed DFT netlist lint: %v", issues)
	}
	a1, _ := ins.Design.Area(ins.Design.Top)
	a2, err := back.Area(back.Top)
	if err != nil || a1 != a2 {
		t.Fatalf("area changed: %v vs %v (%v)", a1, a2, err)
	}
}

// Insert lints the original SOC's modules along with everything it
// generates, so a broken original design is refused.
func TestInsertRefusesDirtyOriginal(t *testing.T) {
	core := smallCore()
	s, res := schedule(t, core, nil)
	for name, spoil := range map[string]func(top *netlist.Module){
		"double-driven net": func(top *netlist.Module) {
			top.MustInstance("u_d0", netlist.CellBuf, map[string]string{"A": "clk", "Z": "x"})
			top.MustInstance("u_d1", netlist.CellInv, map[string]string{"A": "rst", "Z": "x"})
		},
		"core port the core lacks": func(top *netlist.Module) {
			top.Instance("u_CPU").Conns["bogus"] = "clk"
		},
	} {
		soc := smallSOC(t, core)
		spoil(soc.TopModule())
		_, err := Insert(soc, []*testinfo.Core{core}, s, res, nil, "")
		if err == nil || !strings.Contains(err.Error(), "fails lint") {
			t.Errorf("%s: err = %v, want a lint failure", name, err)
		}
	}
}
