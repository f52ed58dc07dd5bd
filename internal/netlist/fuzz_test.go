package netlist

import (
	"math/rand"
	"testing"
)

// FuzzParseVerilog feeds arbitrary bytes to the structural-Verilog reader.
// Malformed input must return an error — never panic — and any design the
// parser accepts must survive an emit→parse round trip (emission is
// canonical, so emit∘parse is a fixed point on the emitted form).
func FuzzParseVerilog(f *testing.F) {
	d := NewDesign("seed", DefaultLibrary())
	m := NewModule("seed")
	m.MustPort("a", In, 1)
	m.MustPort("b", In, 1)
	m.MustPort("y", Out, 1)
	m.MustInstance("u1", CellAnd2, Pins{{"A", "a"}, {"B", "b"}, {"Z", "y"}})
	d.MustAddModule(m)
	if src, err := d.EmitVerilogString(); err == nil {
		f.Add(src)
	}
	if src, err := randomDesign(rand.New(rand.NewSource(1))).EmitVerilogString(); err == nil {
		f.Add(src)
	}
	f.Add("module m(a, y);\ninput a;\noutput y;\nBUF u0 (.A(a), .Z(y));\nendmodule\n")
	f.Add("module m(d, ck, q);\ninput d, ck;\noutput q;\nwire w;\nDFF r (.D(d), .CK(ck), .Q(q));\nendmodule\n")
	f.Add("module b(x);\ninout [3:0] x;\nendmodule\n")
	f.Add("// behavioral IP block, 42 NAND2-equivalent gates\nmodule ip(a);\ninput a;\nendmodule\n")
	f.Add("module m(\\q[0] );\ninput \\q[0] ;\nendmodule\n")
	f.Add("module m(a); input a; endmodule garbage")
	f.Add("module")
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseVerilog(src, nil)
		if err != nil {
			return
		}
		if d == nil {
			t.Fatalf("ParseVerilog returned nil design without error")
		}
		out, err := d.EmitVerilogString()
		if err != nil {
			// Accepted designs may still be un-emittable (e.g. a module
			// with no top); an error return is the correct behaviour.
			return
		}
		if _, err := ParseVerilog(out, d.Lib); err != nil {
			t.Fatalf("re-parse of emitted design failed: %v\n%s", err, out)
		}
	})
}
