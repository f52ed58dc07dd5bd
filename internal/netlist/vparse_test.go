package netlist

import (
	"strings"
	"testing"
)

// roundTrip asserts emit -> parse -> emit is a fixed point and that the
// parsed design matches structurally.
func roundTrip(t *testing.T, d *Design) *Design {
	t.Helper()
	v1, err := d.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseVerilog(v1, d.Lib)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, v1)
	}
	back.Top = d.Top
	v2, err := back.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("round trip not a fixed point:\n--- emitted ---\n%s\n--- re-emitted ---\n%s", v1, v2)
	}
	return back
}

func TestVerilogRoundTripStructural(t *testing.T) {
	d := NewDesign("rt", nil)
	leaf := NewModule("leaf")
	leaf.MustPort("a", In, 2)
	leaf.MustPort("z", Out, 1)
	leaf.MustInstance("g0", CellAnd2, Pins{{"A", "a[0]"}, {"B", "a[1]"}, {"Z", "mid"}})
	leaf.MustInstance("g1", CellInv, Pins{{"A", "mid"}, {"Z", "z"}})
	d.MustAddModule(leaf)
	top := NewModule("top")
	top.MustPort("x", In, 2)
	top.MustPort("y", Out, 1)
	// Bus-bit formals exercise escaped identifiers.
	top.MustInstance("u0", "leaf", Pins{{"a[0]", "x[0]"}, {"a[1]", "x[1]"}, {"z", "y"}})
	d.MustAddModule(top)
	d.Top = "top"

	back := roundTrip(t, d)
	bt := back.Module("top")
	if id := bt.Instance("u0").Actual("a[0]"); id < 0 || bt.Nets[id] != "x[0]" {
		t.Fatal("escaped bus-bit formal lost")
	}
	a1, err := d.Area("top")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := back.Area("top")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("area changed through round trip: %v vs %v", a1, a2)
	}
	if issues := back.Lint(); len(issues) != 0 {
		t.Fatalf("parsed design lint: %v", issues)
	}
}

// TestVerilogRoundTripEscapedPorts binds cells to the bits of ports whose
// names need escaping: a scalar port's bit is written as its escaped
// name, a bus port's bit as the escaped base plus a bit-select, and plain
// port bits exactly as before.
func TestVerilogRoundTripEscapedPorts(t *testing.T) {
	d := NewDesign("rt", nil)
	m := NewModule("top")
	m.MustPort("a.b", In, 1)
	m.MustPort("d.q", In, 2)
	m.MustPort("x", In, 2)
	m.MustPort("z", Out, 1)
	m.MustPort("y.o", Out, 1)
	m.MustInstance("u0", CellBuf, Pins{{"A", "a.b"}, {"Z", "z"}})
	m.MustInstance("u1", CellAnd2, Pins{{"A", "d.q[1]"}, {"B", "x[0]"}, {"Z", "y.o"}})
	d.MustAddModule(m)
	d.Top = "top"

	v, err := d.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`.A(\a.b )`, `.A(\d.q [1])`, `.B(x[0])`, `.Z(z)`, `.Z(\y.o )`} {
		if !strings.Contains(v, want) {
			t.Fatalf("emitted Verilog lacks %s:\n%s", want, v)
		}
	}
	back := roundTrip(t, d)
	bt := back.Module("top")
	for inst, pins := range map[string]Pins{
		"u0": {{"A", "a.b"}, {"Z", "z"}},
		"u1": {{"A", "d.q[1]"}, {"B", "x[0]"}, {"Z", "y.o"}},
	} {
		for _, p := range pins {
			if id := bt.Instance(inst).Actual(p[0]); id < 0 || bt.Nets[id] != p[1] {
				t.Fatalf("%s.%s bound to net %d, want %s", inst, p[0], id, p[1])
			}
		}
	}
	if issues := back.Lint(); len(issues) != 0 {
		t.Fatalf("parsed design lint: %v", issues)
	}
}

func TestVerilogRoundTripBehavioral(t *testing.T) {
	d := NewDesign("rt", nil)
	ip := NewModule("ip")
	ip.Behavioral = true
	ip.AreaOverride = 4242
	ip.MustPort("clk", In, 1)
	d.MustAddModule(ip)
	plain := NewModule("plain")
	plain.MustPort("clk", In, 1)
	d.MustAddModule(plain)
	top := NewModule("top")
	top.MustPort("clk", In, 1)
	top.MustInstance("u_ip", "ip", Pins{{"clk", "clk"}})
	top.MustInstance("u_plain", "plain", Pins{{"clk", "clk"}})
	d.MustAddModule(top)
	d.Top = "top"

	back := roundTrip(t, d)
	bip := back.Module("ip")
	if !bip.Behavioral || bip.AreaOverride != 4242 {
		t.Fatalf("behavioral banner lost: %+v", bip)
	}
	if back.Module("plain").Behavioral {
		t.Fatal("plain module marked behavioral")
	}
}

// The flagship round trip: the whole DFT-inserted wrapper netlist survives
// emit -> parse -> emit, and the parsed copy still simulates.
func TestVerilogRoundTripGeneratedWrapperSim(t *testing.T) {
	d := NewDesign("d", nil)
	if _, err := (func() (*Module, error) { return GenerateWBRCellForTest(d) })(); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, d)
	sim, err := NewSimulator(back, back.Top)
	if err != nil {
		t.Fatal(err)
	}
	// Shift a bit through the parsed WBR cell.
	sim.Set("SHIFT", true)
	sim.Set("CTI", true)
	if err := sim.Tick("WRCK"); err != nil {
		t.Fatal(err)
	}
	if !sim.Get("CTO") {
		t.Fatal("parsed WBR cell does not shift")
	}
}

// GenerateWBRCellForTest builds the same 26-gate WBR cell the wrapper
// package generates, locally (this package cannot import wrapper).
func GenerateWBRCellForTest(d *Design) (*Module, error) {
	m := NewModule("wbr_cell")
	for _, p := range []string{"CFI", "CTI", "WRCK", "SHIFT", "UPDATE", "MODE", "SAFE"} {
		m.MustPort(p, In, 1)
	}
	m.MustPort("CFO", Out, 1)
	m.MustPort("CTO", Out, 1)
	m.MustInstance("capmux", CellMux2, Pins{{"A", "CFI"}, {"B", "CTI"}, {"S", "SHIFT"}, {"Z", "shd"}})
	m.MustInstance("shft", CellDFF, Pins{{"D", "shd"}, {"CK", "WRCK"}, {"Q", "CTO"}})
	m.MustInstance("updl", CellLatchL, Pins{{"D", "CTO"}, {"EN", "UPDATE"}, {"Q", "updq"}})
	m.MustInstance("safe0", CellTie0, Pins{{"Z", "sv"}})
	m.MustInstance("safemux", CellMux2, Pins{{"A", "updq"}, {"B", "sv"}, {"S", "SAFE"}, {"Z", "sq"}})
	m.MustInstance("modemux", CellMux2, Pins{{"A", "CFI"}, {"B", "sq"}, {"S", "MODE"}, {"Z", "CFO"}})
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}

func TestParseVerilogErrors(t *testing.T) {
	for name, src := range map[string]string{
		"empty":        "",
		"garbage":      "hello world",
		"no semicolon": "module m(a) input a; endmodule",
		"bad range":    "module m(a); input [3:1] a; endmodule",
		"no direction": "module m(a); endmodule",
		"bad char":     "module m(); €",
		"empty escape": "module m(); wire \\ ;",
		"dup module":   "module m(); endmodule module m(); endmodule",
		"unterminated": "module m(a); input a;",
	} {
		if _, err := ParseVerilog(src, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseVerilogHandwritten(t *testing.T) {
	src := `
// a hand-written netlist
module half_adder(a, b, s, c);
  input a, b;
  output s, c;
  XOR2 x (.A(a), .B(b), .Z(s));
  AND2 g (.A(a), .B(b), .Z(c));
endmodule
`
	d, err := ParseVerilog(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(d, "half_adder")
	if err != nil {
		t.Fatal(err)
	}
	sim.Set("a", true)
	sim.Set("b", true)
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	if sim.Get("s") || !sim.Get("c") {
		t.Fatalf("1+1: s=%v c=%v", sim.Get("s"), sim.Get("c"))
	}
	if !strings.Contains(d.Top, "half_adder") {
		t.Fatalf("top = %s", d.Top)
	}
}
