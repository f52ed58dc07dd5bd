package netlist

import (
	"slices"
	"strings"
	"testing"
)

func TestPortBits(t *testing.T) {
	p := Port{Name: "d", Width: 1}
	if got := p.Bits(); len(got) != 1 || got[0] != "d" {
		t.Fatalf("scalar port bits = %v", got)
	}
	p = Port{Name: "bus", Width: 3}
	got := p.Bits()
	want := []string{"bus[0]", "bus[1]", "bus[2]"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bus bits = %v, want %v", got, want)
		}
	}
}

func TestAddPortDuplicate(t *testing.T) {
	m := NewModule("m")
	if err := m.AddPort("a", In, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddPort("a", Out, 1); err == nil {
		t.Fatal("duplicate port accepted")
	}
	if err := m.AddPort("w", In, 0); err == nil {
		t.Fatal("zero-width port accepted")
	}
}

func TestAddInstanceDuplicate(t *testing.T) {
	m := NewModule("m")
	if _, err := m.AddInstance("u1", CellInv, map[string]string{"A": "a", "Z": "z"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddInstance("u1", CellInv, nil); err == nil {
		t.Fatal("duplicate instance accepted")
	}
	if m.Instance("u1") == nil {
		t.Fatal("instance lookup failed")
	}
}

func TestDesignAreaHierarchy(t *testing.T) {
	d := NewDesign("d", nil)
	leaf := NewModule("leaf")
	leaf.MustPort("a", In, 1)
	leaf.MustPort("z", Out, 1)
	leaf.MustInstance("i0", CellInv, map[string]string{"A": "a", "Z": "z"})
	leaf.MustInstance("i1", CellNand2, map[string]string{"A": "a", "B": "a", "Z": "n"})
	d.MustAddModule(leaf)

	top := NewModule("top")
	top.MustPort("a", In, 1)
	top.MustPort("z", Out, 1)
	top.MustInstance("l0", "leaf", map[string]string{"a": "a", "z": "m"})
	top.MustInstance("l1", "leaf", map[string]string{"a": "m", "z": "z"})
	d.MustAddModule(top)
	d.Top = "top"

	a, err := d.Area("top")
	if err != nil {
		t.Fatal(err)
	}
	if a != 4 { // 2 leaves x (INV 1 + NAND2 1)
		t.Fatalf("area = %v, want 4", a)
	}
	n, err := d.CellCount("top")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("cell count = %d, want 4", n)
	}
}

func TestAreaBehavioralAndErrors(t *testing.T) {
	d := NewDesign("d", nil)
	ip := NewModule("ip")
	ip.Behavioral = true
	ip.AreaOverride = 1234.5
	d.MustAddModule(ip)
	a, err := d.Area("ip")
	if err != nil {
		t.Fatal(err)
	}
	if a != 1234.5 {
		t.Fatalf("behavioral area = %v", a)
	}
	if _, err := d.Area("nope"); err == nil {
		t.Fatal("unknown module accepted")
	}
	// Recursive instantiation must be detected.
	rec := NewModule("rec")
	rec.MustInstance("self", "rec", nil)
	d.MustAddModule(rec)
	if _, err := d.Area("rec"); err == nil {
		t.Fatal("recursive design accepted")
	}
}

func TestSimCombinational(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("xorgate")
	m.MustPort("a", In, 1)
	m.MustPort("b", In, 1)
	m.MustPort("z", Out, 1)
	// z = a XOR b out of NAND gates.
	m.MustInstance("n1", CellNand2, map[string]string{"A": "a", "B": "b", "Z": "t1"})
	m.MustInstance("n2", CellNand2, map[string]string{"A": "a", "B": "t1", "Z": "t2"})
	m.MustInstance("n3", CellNand2, map[string]string{"A": "t1", "B": "b", "Z": "t3"})
	m.MustInstance("n4", CellNand2, map[string]string{"A": "t2", "B": "t3", "Z": "z"})
	d.MustAddModule(m)

	sim, err := NewSimulator(d, "xorgate")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ a, b, z bool }{
		{false, false, false}, {false, true, true}, {true, false, true}, {true, true, false},
	} {
		sim.Set("a", tc.a)
		sim.Set("b", tc.b)
		if err := sim.Settle(); err != nil {
			t.Fatal(err)
		}
		if got := sim.Get("z"); got != tc.z {
			t.Fatalf("xor(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.z)
		}
	}
}

func TestSimShiftRegister(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("sr")
	m.MustPort("si", In, 1)
	m.MustPort("ck", In, 1)
	m.MustPort("so", Out, 1)
	m.MustInstance("f0", CellDFF, map[string]string{"D": "si", "CK": "ck", "Q": "q0"})
	m.MustInstance("f1", CellDFF, map[string]string{"D": "q0", "CK": "ck", "Q": "q1"})
	m.MustInstance("f2", CellDFF, map[string]string{"D": "q1", "CK": "ck", "Q": "so"})
	d.MustAddModule(m)
	sim, err := NewSimulator(d, "sr")
	if err != nil {
		t.Fatal(err)
	}
	// Shift in 1,0,1 and observe it appear at so after 3 more clocks.
	pattern := []bool{true, false, true}
	var got []bool
	for i := 0; i < 6; i++ {
		v := false
		if i < len(pattern) {
			v = pattern[i]
		}
		sim.Set("si", v)
		if err := sim.Tick("ck"); err != nil {
			t.Fatal(err)
		}
		got = append(got, sim.Get("so"))
	}
	want := []bool{false, false, true, false, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shift out = %v, want %v", got, want)
		}
	}
}

func TestSimScanDFFAndReset(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("m")
	for _, p := range []string{"d", "si", "se", "ck", "r"} {
		m.MustPort(p, In, 1)
	}
	m.MustPort("q", Out, 1)
	m.MustPort("qr", Out, 1)
	m.MustInstance("sf", CellSDFF, map[string]string{"D": "d", "SI": "si", "SE": "se", "CK": "ck", "Q": "q"})
	m.MustInstance("rf", CellDFFR, map[string]string{"D": "d", "CK": "ck", "R": "r", "Q": "qr"})
	d.MustAddModule(m)
	sim, err := NewSimulator(d, "m")
	if err != nil {
		t.Fatal(err)
	}
	sim.Set("d", true)
	sim.Set("se", false)
	if err := sim.Tick("ck"); err != nil {
		t.Fatal(err)
	}
	if !sim.Get("q") || !sim.Get("qr") {
		t.Fatal("functional capture failed")
	}
	sim.Set("se", true)
	sim.Set("si", false)
	if err := sim.Tick("ck"); err != nil {
		t.Fatal(err)
	}
	if sim.Get("q") {
		t.Fatal("scan shift did not override D")
	}
	sim.Set("r", true)
	if err := sim.Tick("ck"); err != nil {
		t.Fatal(err)
	}
	if sim.Get("qr") {
		t.Fatal("reset did not clear DFFR")
	}
}

func TestSimGatedClock(t *testing.T) {
	// A flop behind an AND clock gate must only capture when enabled.
	d := NewDesign("d", nil)
	m := NewModule("m")
	for _, p := range []string{"d", "en", "ck"} {
		m.MustPort(p, In, 1)
	}
	m.MustPort("q", Out, 1)
	m.MustInstance("cg", CellAnd2, map[string]string{"A": "ck", "B": "en", "Z": "gck"})
	m.MustInstance("ff", CellDFF, map[string]string{"D": "d", "CK": "gck", "Q": "q"})
	d.MustAddModule(m)
	sim, err := NewSimulator(d, "m")
	if err != nil {
		t.Fatal(err)
	}
	sim.Set("d", true)
	sim.Set("en", false)
	if err := sim.Tick("ck"); err != nil {
		t.Fatal(err)
	}
	if sim.Get("q") {
		t.Fatal("gated flop captured while disabled")
	}
	sim.Set("en", true)
	if err := sim.Tick("ck"); err != nil {
		t.Fatal(err)
	}
	if !sim.Get("q") {
		t.Fatal("gated flop did not capture while enabled")
	}
}

func TestSimCombinationalLoopDetected(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("loop")
	m.MustPort("z", Out, 1)
	m.MustInstance("i", CellInv, map[string]string{"A": "z", "Z": "z"})
	d.MustAddModule(m)
	if _, err := NewSimulator(d, "loop"); err == nil {
		t.Fatal("ring oscillator settled")
	}
}

func TestSimBehavioralRejected(t *testing.T) {
	d := NewDesign("d", nil)
	ip := NewModule("ip")
	ip.Behavioral = true
	d.MustAddModule(ip)
	if _, err := NewSimulator(d, "ip"); err == nil {
		t.Fatal("behavioral module simulated")
	}
}

func TestLintCleanAndDirty(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("m")
	m.MustPort("a", In, 1)
	m.MustPort("z", Out, 1)
	m.MustInstance("u", CellInv, map[string]string{"A": "a", "Z": "z"})
	d.MustAddModule(m)
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("clean design flagged: %v", issues)
	}

	bad := NewModule("bad")
	bad.MustPort("z", Out, 1)
	bad.MustInstance("u0", CellInv, map[string]string{"A": "floating", "Z": "z"})
	bad.MustInstance("u1", CellInv, map[string]string{"A": "floating", "Z": "z"}) // double driver
	bad.MustInstance("u2", "ghost", nil)                                          // unknown module
	bad.MustInstance("u3", CellInv, map[string]string{"X": "z"})                  // bad port
	d.MustAddModule(bad)
	issues := d.Lint()
	kinds := make(map[string]int)
	for _, i := range issues {
		kinds[i.Kind]++
	}
	for _, k := range []string{"undriven", "multidriven", "unknown-ref", "bad-port"} {
		if kinds[k] == 0 {
			t.Fatalf("lint missed %q; issues: %v", k, issues)
		}
	}
}

// dirtyDesign is a multi-module design with every lint issue kind: several
// undriven and multidriven nets in one module, bad ports on cells and on a
// sub-module's bus, unknown references, a clean sub-module, an inout port
// and a behavioral module.  Instance u5 has two bad ports, which lint
// reports in port-name order whatever the connection map's iteration order.
func dirtyDesign() *Design {
	d := NewDesign("dirty", nil)
	leaf := NewModule("leaf")
	leaf.MustPort("d", In, 2)
	leaf.MustPort("q", Out, 1)
	leaf.MustInstance("g", CellAnd2, map[string]string{"A": "d[0]", "B": "d[1]", "Z": "q"})
	d.MustAddModule(leaf)

	alpha := NewModule("alpha")
	alpha.MustPort("a", In, 1)
	alpha.MustPort("z", Out, 2)
	alpha.MustPort("y", Out, 1) // never driven
	alpha.MustInstance("u0", CellInv, map[string]string{"A": "a", "Z": "z[0]"})
	alpha.MustInstance("u1", CellInv, map[string]string{"A": "a", "Z": "z[0]"})
	alpha.MustInstance("u2", CellBuf, map[string]string{"A": "f1", "Z": "z[1]"})
	alpha.MustInstance("u3", CellBuf, map[string]string{"A": "f2", "Z": "z[1]"})
	alpha.MustInstance("u4", CellNand2, map[string]string{"A": "f1", "B": "f2", "Z": "z[1]"})
	alpha.MustInstance("l0", "leaf", map[string]string{"d[0]": "a", "d[1]": "f3", "q": "w"})
	alpha.MustInstance("l1", "leaf", map[string]string{"d[0]": "a", "d[1]": "a", "q": "w"})
	alpha.MustInstance("l2", "leaf", map[string]string{"d[2]": "a", "q": "v"})
	alpha.MustInstance("u5", CellInv, map[string]string{"X": "w", "Y": "w"})
	alpha.MustInstance("u6", "ghost", map[string]string{"A": "a"})
	alpha.MustInstance("u7", CellBuf, map[string]string{"A": "v", "Z": "f0"})
	alpha.MustInstance("u8", CellInv, map[string]string{"A": "f0", "Z": "f0"})
	d.MustAddModule(alpha)

	beta := NewModule("beta")
	beta.MustPort("i", In, 1)
	beta.MustPort("o", Out, 1)
	beta.MustPort("io", InOut, 1)
	beta.MustInstance("a0", "alpha", map[string]string{"a": "i", "z[0]": "o", "z[1]": "n1", "y": "n1"})
	beta.MustInstance("m0", "missing", nil)
	beta.MustInstance("b0", CellBuf, map[string]string{"A": "n2", "Z": "n3"})
	beta.MustInstance("b1", CellBuf, map[string]string{"A": "io", "Q": "n3"})
	beta.MustInstance("b2", CellInv, map[string]string{"A": "i", "Z": "io"})
	beta.MustInstance("b3", "ip", map[string]string{"clk": "i", "dout": "n4"})
	d.MustAddModule(beta)

	ip := NewModule("ip")
	ip.Behavioral = true
	ip.MustPort("clk", In, 1)
	ip.MustPort("dout", Out, 1)
	ip.MustInstance("x", "nowhere", nil) // not checked: behavioral
	d.MustAddModule(ip)
	return d
}

// The full issue list of a dirty design — module, kind, detail and order —
// is pinned, so a faster lint cannot drop, add or reorder an issue.
func TestLintGolden(t *testing.T) {
	want := []LintIssue{
		{"alpha", "bad-port", "instance l2 (leaf) has no port d[2]"},
		{"alpha", "bad-port", "instance u5 (INV) has no port X"},
		{"alpha", "bad-port", "instance u5 (INV) has no port Y"},
		{"alpha", "unknown-ref", "instance u6 references unknown cell/module ghost"},
		{"alpha", "multidriven", "net f0 has 2 drivers"},
		{"alpha", "undriven", "net f1 has 2 loads and no driver"},
		{"alpha", "undriven", "net f2 has 2 loads and no driver"},
		{"alpha", "undriven", "net f3 has 1 loads and no driver"},
		{"alpha", "multidriven", "net w has 2 drivers"},
		{"alpha", "undriven", "net y has 1 loads and no driver"},
		{"alpha", "multidriven", "net z[0] has 2 drivers"},
		{"alpha", "multidriven", "net z[1] has 3 drivers"},
		{"beta", "unknown-ref", "instance m0 references unknown cell/module missing"},
		{"beta", "bad-port", "instance b1 (BUF) has no port Q"},
		{"beta", "multidriven", "net io has 2 drivers"},
		{"beta", "multidriven", "net n1 has 2 drivers"},
		{"beta", "undriven", "net n2 has 1 loads and no driver"},
	}
	// Repeated runs see different map iteration orders; the list must not
	// move.
	for range 64 {
		if got := dirtyDesign().Lint(); !slices.Equal(got, want) {
			t.Fatalf("lint issues:\n got %#v\nwant %#v", got, want)
		}
	}

	// LintModules reports the named modules' issues in the order named.
	d := dirtyDesign()
	sub := d.LintModules([]string{"beta", "leaf", "ip", "alpha"})
	if reordered := append(slices.Clone(want[12:]), want[:12]...); !slices.Equal(sub, reordered) {
		t.Fatalf("LintModules(beta, leaf, ip, alpha) = %v", sub)
	}
	if clean := d.LintModules([]string{"leaf", "ip"}); len(clean) != 0 {
		t.Fatalf("clean modules flagged: %v", clean)
	}
}

func TestEmitVerilog(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("m")
	m.MustPort("a", In, 2)
	m.MustPort("z", Out, 1)
	m.MustInstance("u", CellAnd2, map[string]string{"A": "a[0]", "B": "a[1]", "Z": "z"})
	d.MustAddModule(m)
	s, err := d.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"module m(a, z);", "input [1:0] a;", "output z;", "AND2 u", "endmodule"} {
		if !strings.Contains(s, want) {
			t.Fatalf("emitted verilog missing %q:\n%s", want, s)
		}
	}
}

func TestMuxTree(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("mux8")
	m.MustPort("in", In, 8)
	m.MustPort("sel", In, 3)
	m.MustPort("z", Out, 1)
	inputs := Port{Name: "in", Width: 8}.Bits()
	sel := Port{Name: "sel", Width: 3}.Bits()
	n, err := AddMuxTree(m, "t", inputs, sel, "z")
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("8:1 mux tree used %d MUX2 cells, want 7", n)
	}
	d.MustAddModule(m)
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("mux tree lint: %v", issues)
	}
	sim, err := NewSimulator(d, "mux8")
	if err != nil {
		t.Fatal(err)
	}
	for code := 0; code < 8; code++ {
		in := make([]bool, 8)
		in[code] = true
		sim.SetBus("in", in)
		selBits := []bool{code&1 != 0, code&2 != 0, code&4 != 0}
		sim.SetBus("sel", selBits)
		if err := sim.Settle(); err != nil {
			t.Fatal(err)
		}
		if !sim.Get("z") {
			t.Fatalf("mux select %d did not route one-hot input", code)
		}
	}
}

func TestDecoder(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("dec")
	m.MustPort("sel", In, 2)
	m.MustPort("en", In, 1)
	m.MustPort("y", Out, 4)
	if _, err := AddDecoder(m, "dc", Port{Name: "sel", Width: 2}.Bits(), "en",
		Port{Name: "y", Width: 4}.Bits()); err != nil {
		t.Fatal(err)
	}
	d.MustAddModule(m)
	sim, err := NewSimulator(d, "dec")
	if err != nil {
		t.Fatal(err)
	}
	sim.Set("en", true)
	for code := 0; code < 4; code++ {
		sim.SetBus("sel", []bool{code&1 != 0, code&2 != 0})
		if err := sim.Settle(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			want := i == code
			if got := sim.GetBus("y", 4)[i]; got != want {
				t.Fatalf("decoder(%d) y[%d] = %v", code, i, got)
			}
		}
	}
	sim.Set("en", false)
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	for i, v := range sim.GetBus("y", 4) {
		if v {
			t.Fatalf("decoder disabled but y[%d] high", i)
		}
	}
}

func TestAndOrTrees(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("trees")
	m.MustPort("in", In, 5)
	m.MustPort("all", Out, 1)
	m.MustPort("any", Out, 1)
	in := Port{Name: "in", Width: 5}.Bits()
	if _, err := AddAndTree(m, "a", in, "all"); err != nil {
		t.Fatal(err)
	}
	if _, err := AddOrTree(m, "o", in, "any"); err != nil {
		t.Fatal(err)
	}
	d.MustAddModule(m)
	sim, err := NewSimulator(d, "trees")
	if err != nil {
		t.Fatal(err)
	}
	sim.SetBus("in", []bool{true, true, true, true, true})
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	if !sim.Get("all") || !sim.Get("any") {
		t.Fatal("all-ones: want all=1 any=1")
	}
	sim.SetBus("in", []bool{false, false, true, false, false})
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	if sim.Get("all") || !sim.Get("any") {
		t.Fatal("one-hot: want all=0 any=1")
	}
	sim.SetBus("in", make([]bool, 5))
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	if sim.Get("all") || sim.Get("any") {
		t.Fatal("all-zero: want all=0 any=0")
	}
}

func TestLoadState(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("m")
	m.MustPort("ck", In, 1)
	m.MustPort("q", Out, 1)
	m.MustInstance("ff", CellDFF, map[string]string{"D": "q", "CK": "ck", "Q": "q"})
	d.MustAddModule(m)
	sim, err := NewSimulator(d, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.LoadState("ff", true); err != nil {
		t.Fatal(err)
	}
	if !sim.Get("q") {
		t.Fatal("LoadState did not expose state")
	}
	if err := sim.LoadState("nope", true); err == nil {
		t.Fatal("LoadState accepted unknown cell")
	}
}

func TestCellHistogram(t *testing.T) {
	d := NewDesign("d", nil)
	leaf := NewModule("leaf")
	leaf.MustInstance("i", CellInv, map[string]string{"A": "a", "Z": "b"})
	leaf.MustInstance("n", CellNand2, map[string]string{"A": "a", "B": "b", "Z": "c"})
	d.MustAddModule(leaf)
	top := NewModule("top")
	top.MustInstance("l0", "leaf", nil)
	top.MustInstance("l1", "leaf", nil)
	top.MustInstance("ff", CellDFF, map[string]string{"D": "c", "CK": "ck", "Q": "q"})
	d.MustAddModule(top)
	h, err := d.CellHistogram("top")
	if err != nil {
		t.Fatal(err)
	}
	if h[CellInv] != 2 || h[CellNand2] != 2 || h[CellDFF] != 1 {
		t.Fatalf("histogram = %v", h)
	}
	if _, err := d.CellHistogram("ghost"); err == nil {
		t.Fatal("unknown module accepted")
	}
	ip := NewModule("ip")
	ip.Behavioral = true
	d.MustAddModule(ip)
	h2, err := d.CellHistogram("ip")
	if err != nil || len(h2) != 0 {
		t.Fatalf("behavioral histogram = %v, %v", h2, err)
	}
}

func TestMergeAndClone(t *testing.T) {
	a := NewDesign("a", nil)
	m := NewModule("m")
	m.Attrs["k"] = "v"
	m.MustPort("x", In, 2)
	m.MustInstance("u", CellBuf, map[string]string{"A": "x[0]", "Z": "y"})
	a.MustAddModule(m)

	b := NewDesign("b", nil)
	if err := b.Merge(a); err != nil {
		t.Fatal(err)
	}
	// Merge shares the source's modules; it does not copy them.
	if got := b.Module("m"); got != m {
		t.Fatalf("merge did not share the module: %+v", got)
	}
	if err := b.Merge(a); err == nil {
		t.Fatal("collision accepted")
	}
	// A collision adds nothing, not even the modules that do not collide.
	c := NewDesign("c", nil)
	c.MustAddModule(NewModule("n"))
	c.MustAddModule(NewModule("m"))
	if err := b.Merge(c); err == nil || b.Module("n") != nil {
		t.Fatalf("partial merge: err %v, n %v", err, b.Module("n"))
	}

	// Clone is a deep copy: mutating it leaves the original untouched.
	cl := m.Clone("m2")
	if cl.Name != "m2" || cl.Attrs["k"] != "v" || cl.Instance("u") == nil || cl.Port("x") == nil {
		t.Fatalf("clone lost content: %+v", cl)
	}
	cl.Attrs["k"] = "changed"
	cl.Instance("u").Conns["A"] = "x[1]"
	cl.MustPort("extra", In, 1)
	if m.Attrs["k"] != "v" || m.Instance("u").Conns["A"] != "x[0]" || m.Port("extra") != nil {
		t.Fatal("clone aliased the original module")
	}
}

func TestEmitBehavioralModule(t *testing.T) {
	d := NewDesign("d", nil)
	ip := NewModule("blackbox")
	ip.Behavioral = true
	ip.AreaOverride = 321
	ip.MustPort("clk", In, 1)
	d.MustAddModule(ip)
	s, err := d.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "behavioral IP block, 321") {
		t.Fatalf("behavioral banner missing:\n%s", s)
	}
}

func TestBuilderErrors(t *testing.T) {
	m := NewModule("m")
	if _, err := AddMuxTree(m, "t", nil, []string{"s"}, "z"); err == nil {
		t.Fatal("empty mux inputs accepted")
	}
	if _, err := AddMuxTree(m, "t", []string{"a", "b", "c"}, []string{"s"}, "z"); err == nil {
		t.Fatal("too many mux inputs accepted")
	}
	if _, err := AddAndTree(m, "t", nil, "z"); err == nil {
		t.Fatal("empty and-tree accepted")
	}
	if _, err := AddDecoder(m, "d", []string{"s"}, "", []string{"a", "b", "c"}); err == nil {
		t.Fatal("oversubscribed decoder accepted")
	}
	if _, err := AddRegister(m, "r", "ck", []string{"d0"}, []string{"q0", "q1"}); err == nil {
		t.Fatal("mismatched register accepted")
	}
}

func TestAddRegister(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("m")
	m.MustPort("ck", In, 1)
	m.MustPort("d", In, 2)
	m.MustPort("q", Out, 2)
	if _, err := AddRegister(m, "r", "ck", []string{"d[0]", "d[1]"}, []string{"q[0]", "q[1]"}); err != nil {
		t.Fatal(err)
	}
	d.MustAddModule(m)
	sim, err := NewSimulator(d, "m")
	if err != nil {
		t.Fatal(err)
	}
	sim.SetBus("d", []bool{true, false})
	if err := sim.Tick("ck"); err != nil {
		t.Fatal(err)
	}
	q := sim.GetBus("q", 2)
	if !q[0] || q[1] {
		t.Fatalf("register captured %v", q)
	}
}

func TestSingleInputTrees(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("m")
	m.MustPort("a", In, 1)
	m.MustPort("x", Out, 1)
	m.MustPort("y", Out, 1)
	if _, err := AddAndTree(m, "t1", []string{"a"}, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := AddOrTree(m, "t2", []string{"a"}, "y"); err != nil {
		t.Fatal(err)
	}
	d.MustAddModule(m)
	sim, err := NewSimulator(d, "m")
	if err != nil {
		t.Fatal(err)
	}
	sim.Set("a", true)
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	if !sim.Get("x") || !sim.Get("y") {
		t.Fatal("single-input trees should buffer")
	}
}

func TestSimulatorNetsAndBitName(t *testing.T) {
	d := NewDesign("d", nil)
	m := NewModule("m")
	m.MustPort("a", In, 1)
	m.MustPort("z", Out, 1)
	m.MustInstance("u", CellInv, map[string]string{"A": "a", "Z": "z"})
	d.MustAddModule(m)
	sim, err := NewSimulator(d, "m")
	if err != nil {
		t.Fatal(err)
	}
	nets := sim.Nets()
	if len(nets) < 2 {
		t.Fatalf("nets = %v", nets)
	}
	if sim.GateCount() != 1 {
		t.Fatalf("gate count = %d", sim.GateCount())
	}
	if BitName("x", 0, 1) != "x" || BitName("x", 2, 4) != "x[2]" {
		t.Fatal("BitName")
	}
	if In.String() != "input" || Out.String() != "output" || InOut.String() != "inout" {
		t.Fatal("direction names")
	}
}

func TestFlattenUnknownAndUnconnected(t *testing.T) {
	d := NewDesign("d", nil)
	sub := NewModule("sub")
	sub.MustPort("a", In, 1)
	sub.MustPort("z", Out, 1)
	sub.MustInstance("u", CellInv, map[string]string{"A": "a", "Z": "z"})
	d.MustAddModule(sub)
	top := NewModule("top")
	top.MustPort("z", Out, 1)
	// Input "a" left unconnected: floats to 0, so z = 1.
	top.MustInstance("s", "sub", map[string]string{"z": "z"})
	d.MustAddModule(top)
	d.Top = "top"
	sim, err := NewSimulator(d, "top")
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Get("z") {
		t.Fatal("unconnected input should float low")
	}
	ghost := NewModule("ghost")
	ghost.MustInstance("g", "missing", nil)
	d.MustAddModule(ghost)
	if _, err := NewSimulator(d, "ghost"); err == nil {
		t.Fatal("unknown module simulated")
	}
	if _, err := NewSimulator(d, "nothere"); err == nil {
		t.Fatal("unknown top simulated")
	}
}
