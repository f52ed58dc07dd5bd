package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// buildSimTestbed returns a design exercising every library cell, a gated
// clock (which forces the generic Tick path), a latch enable and a two-deep
// hierarchy, so the compiled simulator can be checked against the reference
// Simulator net for net.
func buildSimTestbed(t *testing.T) *Design {
	t.Helper()
	d := NewDesign("tb", DefaultLibrary())

	tff := NewModule("tff")
	tff.MustPort("ck", In, 1)
	tff.MustPort("t", In, 1)
	tff.MustPort("q", Out, 1)
	tff.MustInstance("u_x", CellXor2, Pins{{"A", "q"}, {"B", "t"}, {"Z", "nd"}})
	tff.MustInstance("u_f", CellDFF, Pins{{"D", "nd"}, {"CK", "ck"}, {"Q", "q"}})
	d.MustAddModule(tff)

	m := NewModule("dut")
	for _, p := range []string{"ck", "ck2", "rst", "en", "a", "b", "s"} {
		m.MustPort(p, In, 1)
	}
	for _, p := range []string{"y0", "y1", "cq", "sq", "rq", "lq", "gq", "t0q", "t1q"} {
		m.MustPort(p, Out, 1)
	}
	m.MustInstance("u_inv", CellInv, Pins{{"A", "a"}, {"Z", "y0"}})
	m.MustInstance("u_nand", CellNand2, Pins{{"A", "a"}, {"B", "b"}, {"Z", "n1"}})
	m.MustInstance("u_nor", CellNor2, Pins{{"A", "a"}, {"B", "s"}, {"Z", "n2"}})
	m.MustInstance("u_and", CellAnd2, Pins{{"A", "n1"}, {"B", "b"}, {"Z", "n3"}})
	m.MustInstance("u_or", CellOr2, Pins{{"A", "n2"}, {"B", "s"}, {"Z", "n4"}})
	m.MustInstance("u_xor", CellXor2, Pins{{"A", "n3"}, {"B", "n4"}, {"Z", "n5"}})
	m.MustInstance("u_xnor", CellXnor2, Pins{{"A", "n5"}, {"B", "a"}, {"Z", "n6"}})
	m.MustInstance("u_mux", CellMux2, Pins{{"A", "n5"}, {"B", "n6"}, {"S", "s"}, {"Z", "m1"}})
	m.MustInstance("u_buf", CellBuf, Pins{{"A", "m1"}, {"Z", "y1"}})
	m.MustInstance("u_t0", CellTie0, Pins{{"Z", "tz"}})
	m.MustInstance("u_t1", CellTie1, Pins{{"Z", "to"}})
	m.MustInstance("u_dff", CellDFF, Pins{{"D", "n5"}, {"CK", "ck"}, {"Q", "cq"}})
	m.MustInstance("u_sdff", CellSDFF,
		Pins{{"D", "a"}, {"SI", "cq"}, {"SE", "s"}, {"CK", "ck"}, {"Q", "sq"}, {"QN", "sqn"}})
	m.MustInstance("u_dffr", CellDFFR, Pins{{"D", "b"}, {"CK", "ck"}, {"R", "rst"}, {"Q", "rq"}})
	m.MustInstance("u_lat", CellLatchL, Pins{{"D", "a"}, {"EN", "en"}, {"Q", "lq"}})
	// Gated clock: ck2 drives an AND, so ck2 is not "clock pure".
	m.MustInstance("u_gate", CellAnd2, Pins{{"A", "ck2"}, {"B", "en"}, {"Z", "gck"}})
	m.MustInstance("u_gdff", CellDFF, Pins{{"D", "sqn"}, {"CK", "gck"}, {"Q", "gq"}})
	m.MustInstance("u_tff0", "tff", Pins{{"ck", "ck"}, {"t", "to"}, {"q", "t0q"}})
	m.MustInstance("u_tff1", "tff", Pins{{"ck", "ck"}, {"t", "tz"}, {"q", "t1q"}})
	d.MustAddModule(m)
	d.Top = "dut"
	return d
}

var tbOutputs = []string{"y0", "y1", "cq", "sq", "rq", "lq", "gq", "t0q", "t1q"}

// driveBoth applies one random stimulus step to both simulators and
// compares every observable output, returning on the first mismatch.
func compareOutputs(t *testing.T, step string, ref *Simulator, cs *CompiledSim) {
	t.Helper()
	for _, o := range tbOutputs {
		if ref.Get(o) != cs.Get(o) {
			t.Fatalf("%s: output %s: Simulator=%v CompiledSim=%v", step, o, ref.Get(o), cs.Get(o))
		}
	}
}

func TestCompiledSimMatchesSimulator(t *testing.T) {
	d := buildSimTestbed(t)
	ref, err := NewSimulator(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for cyc := 0; cyc < 300; cyc++ {
		for _, in := range []string{"rst", "en", "a", "b", "s"} {
			v := rng.Intn(2) == 1
			ref.Set(in, v)
			cs.Set(in, v)
		}
		if err := ref.Settle(); err != nil {
			t.Fatal(err)
		}
		cs.Settle()
		compareOutputs(t, "settle", ref, cs)
		clk := []string{"ck", "ck2", "en"}[rng.Intn(3)]
		if err := ref.Tick(clk); err != nil {
			t.Fatal(err)
		}
		cs.Tick(clk)
		compareOutputs(t, "tick "+clk, ref, cs)
	}

	t.Run("property", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			simProperty(t, buildSimTestbed(t), "gck", "u_gate/Z", seed)
			simProperty(t, buildCustomTestbed(t), "y", "u_mux/Z", seed)
		}
	})
}

// buildCustomTestbed returns a design whose library mixes shared default
// cells (kernel opcodes) with user cells that evaluate through Eval — a
// 3-input and a 2-output combinational cell and a sequential T flop — plus
// a gate with an unconnected input and one with an unconnected output.
func buildCustomTestbed(t *testing.T) *Design {
	t.Helper()
	lib := NewLibrary()
	for _, n := range []string{CellInv, CellNand2, CellMux2, CellDFF} {
		c, _ := DefaultLibrary().Cell(n)
		if err := lib.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*Cell{
		{Name: "AOI21", Inputs: []string{"A1", "A2", "B"}, Outputs: []string{"Z"},
			Eval: func(in map[string]bool) map[string]bool {
				return map[string]bool{"Z": !(in["A1"] && in["A2"] || in["B"])}
			}},
		{Name: "HA", Inputs: []string{"A", "B"}, Outputs: []string{"S", "C"},
			Eval: func(in map[string]bool) map[string]bool {
				return map[string]bool{"S": in["A"] != in["B"], "C": in["A"] && in["B"]}
			}},
		{Name: "TFFC", Inputs: []string{"T", "CK"}, Outputs: []string{"Q"}, Seq: true, Clock: "CK",
			Eval: func(in map[string]bool) map[string]bool {
				return map[string]bool{"Q": in["Q"] != in["T"]}
			}},
	} {
		if err := lib.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDesign("ctb", lib)
	m := NewModule("dut")
	for _, p := range []string{"ck", "rst", "en", "a", "b", "s"} {
		m.MustPort(p, In, 1)
	}
	for _, p := range []string{"y", "q1", "q2"} {
		m.MustPort(p, Out, 1)
	}
	m.MustInstance("u_aoi", "AOI21", Pins{{"A1", "a"}, {"A2", "b"}, {"B", "q1"}, {"Z", "n1"}})
	m.MustInstance("u_ha", "HA", Pins{{"A", "n1"}, {"B", "s"}, {"S", "s1"}, {"C", "c1"}})
	m.MustInstance("u_t", "TFFC", Pins{{"T", "s1"}, {"CK", "ck"}, {"Q", "q1"}})
	m.MustInstance("u_open", CellNand2, Pins{{"A", "c1"}, {"Z", "n2"}})
	m.MustInstance("u_dangle", CellInv, Pins{{"A", "n2"}})
	m.MustInstance("u_mux", CellMux2, Pins{{"A", "n2"}, {"B", "s1"}, {"S", "en"}, {"Z", "y"}})
	m.MustInstance("u_d", CellDFF, Pins{{"D", "y"}, {"CK", "ck"}, {"Q", "q2"}})
	d.MustAddModule(m)
	d.Top = "dut"
	return d
}

// compareNets checks every net the reference simulator knows.
func compareNets(t *testing.T, step string, ref *Simulator, cs *CompiledSim) {
	t.Helper()
	for _, n := range ref.Nets() {
		if ref.Get(n) != cs.Get(n) {
			t.Fatalf("%s: net %s: Simulator=%v CompiledSim=%v", step, n, ref.Get(n), cs.Get(n))
		}
	}
}

// simProperty drives a seeded random interleaving of every CompiledSim
// mutator against the reference Simulator and compares every net after
// every step.  The operations that unsettle the compiled machine without
// touching an input (Inject, ClearFaults, LoadState, Tick's commit) are
// each followed by a Settle with nothing else changed, so a missed
// unsettle shows up as stale nets.
func simProperty(t *testing.T, d *Design, driven, driver string, seed int64) {
	t.Helper()
	ref, err := NewSimulator(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	var inputs, seqs []string
	for _, p := range d.Modules["dut"].Ports {
		if p.Dir == In {
			inputs = append(inputs, p.Name)
		}
	}
	// Pulsing a gate-driven net is legal too: Settle overwrites the pulse,
	// so the Tick's final clock drop may change nothing.  (Not while its
	// driver's output is forced: the simulators pin a forced net at
	// different times, so driving it from outside is left undefined.)
	clocks := []string{"ck", "en", "rst", driven}
	for _, g := range ref.gates {
		if g.cell.Seq {
			seqs = append(seqs, g.name)
		}
	}
	sites := cs.Faults()
	forced := map[string]bool{} // gate/port pins with an active force
	rng := rand.New(rand.NewSource(seed))
	settleBoth := func() {
		if err := ref.Settle(); err != nil {
			t.Fatal(err)
		}
		cs.Settle()
	}
	for i := 0; i < 400; i++ {
		var step string
		switch op := rng.Intn(10); op {
		case 0, 1: // drive an input, half the time to the value it holds
			in := inputs[rng.Intn(len(inputs))]
			v := rng.Intn(2) == 1
			if rng.Intn(2) == 0 {
				v = ref.Get(in)
			}
			step = fmt.Sprintf("set %s=%v", in, v)
			ref.Set(in, v)
			if op == 0 {
				cs.Set(in, v)
			} else {
				cs.SetID(cs.NetID(in), v)
			}
		case 2: // settle, then settle again with nothing changed
			step = "settle"
			settleBoth()
			compareNets(t, step, ref, cs)
			cs.Settle()
			step = "redundant settle"
		case 3, 4:
			clk := clocks[rng.Intn(len(clocks))]
			if clk == driven && forced[driver] {
				continue
			}
			step = "tick " + clk
			if err := ref.Tick(clk); err != nil {
				t.Fatal(err)
			}
			cs.Tick(clk)
		case 5: // inject on a settled machine, then settle
			f := sites[rng.Intn(len(sites))]
			if forced[f.Gate+"/"+f.Port] {
				continue
			}
			settleBoth()
			step = "inject " + f.String()
			forced[f.Gate+"/"+f.Port] = true
			if err := ref.Inject(f.Gate, f.Port, f.Value); err != nil {
				t.Fatal(err)
			}
			if err := cs.Inject(f.Gate, f.Port, f.Value); err != nil {
				t.Fatal(err)
			}
			settleBoth()
		case 6: // clear on a settled machine, then settle
			settleBoth()
			step = "clear faults"
			clear(forced)
			ref.ClearFaults()
			cs.ClearFaults()
			settleBoth()
		case 7:
			g := seqs[rng.Intn(len(seqs))]
			v := rng.Intn(2) == 1
			settleBoth()
			step = fmt.Sprintf("load %s=%v", g, v)
			if err := ref.LoadState(g, v); err != nil {
				t.Fatal(err)
			}
			if err := cs.LoadState(g, v); err != nil {
				t.Fatal(err)
			}
			settleBoth()
		case 8:
			step = "reset"
			if err := ref.Reset(); err != nil {
				t.Fatal(err)
			}
			cs.Reset()
		case 9: // continue on a clone; faulting and clearing the original must not leak
			step = "clone"
			old := cs
			cs = cs.Clone()
			if err := ref.Reset(); err != nil {
				t.Fatal(err)
			}
			compareNets(t, step, ref, cs)
			f := sites[rng.Intn(len(sites))]
			if !forced[f.Gate+"/"+f.Port] {
				if err := old.Inject(f.Gate, f.Port, f.Value); err != nil {
					t.Fatal(err)
				}
			}
			old.ClearFaults()
			if err := old.Inject(f.Gate, f.Port, !f.Value); err != nil {
				t.Fatal(err)
			}
			old.Reset()
			step = "clone after faulting the original"
			if err := ref.Reset(); err != nil {
				t.Fatal(err)
			}
			cs.Reset()
		}
		compareNets(t, fmt.Sprintf("seed %d step %d: %s", seed, i, step), ref, cs)
	}
}

// TestCompiledSimSettleSeesFaultChanges pins the two cases a missed
// unsettle would silently break: a fault injected into a settled machine
// must show at the next Settle, and ClearFaults must take it away again,
// both with no input changed in between.  It also checks that re-driving
// a net with the value it holds keeps a settled machine settled.
func TestCompiledSimSettleSeesFaultChanges(t *testing.T) {
	d := buildSimTestbed(t)
	cs, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	cs.Set("a", false)
	cs.Settle()
	if !cs.Get("y0") {
		t.Fatal("y0 = !a should be 1")
	}
	cs.Set("a", false)
	if !cs.settled {
		t.Error("driving a net to its current value unsettled the machine")
	}
	cs.Set("a", true)
	if cs.settled {
		t.Error("changing an input left the machine settled")
	}
	cs.Set("a", false)
	cs.Settle()

	for _, tc := range []struct{ gate, port string }{{"u_inv", "A"}, {"u_inv", "Z"}} {
		stuck := tc.port == "A" // SA1 on A or SA0 on Z both force y0 to 0
		if err := cs.Inject(tc.gate, tc.port, stuck); err != nil {
			t.Fatal(err)
		}
		cs.Settle()
		if cs.Get("y0") {
			t.Errorf("%s/%s: fault not visible after Settle", tc.gate, tc.port)
		}
		cs.ClearFaults()
		cs.Settle()
		if !cs.Get("y0") {
			t.Errorf("%s/%s: ClearFaults not visible after Settle", tc.gate, tc.port)
		}
	}
}

// TestCompiledSimFaultsMatchSimulator injects the same stuck-at fault into
// both simulators and checks the faulty machines stay bit-identical too.
func TestCompiledSimFaultsMatchSimulator(t *testing.T) {
	d := buildSimTestbed(t)
	probe, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	sites := probe.Faults()
	if len(sites) < 50 {
		t.Fatalf("expected a rich fault list, got %d sites", len(sites))
	}
	for fi := 0; fi < len(sites); fi += 7 {
		f := sites[fi]
		ref, err := NewSimulator(d, "dut")
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewCompiledSim(d, "dut")
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Inject(f.Gate, f.Port, f.Value); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if err := cs.Inject(f.Gate, f.Port, f.Value); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		rng := rand.New(rand.NewSource(int64(fi)))
		for cyc := 0; cyc < 40; cyc++ {
			for _, in := range []string{"rst", "en", "a", "b", "s"} {
				v := rng.Intn(2) == 1
				ref.Set(in, v)
				cs.Set(in, v)
			}
			if err := ref.Settle(); err != nil {
				t.Fatal(err)
			}
			cs.Settle()
			compareOutputs(t, f.String()+" settle", ref, cs)
			clk := []string{"ck", "ck2", "en"}[rng.Intn(3)]
			if err := ref.Tick(clk); err != nil {
				t.Fatal(err)
			}
			cs.Tick(clk)
			compareOutputs(t, f.String()+" tick", ref, cs)
		}
	}
}

func TestCompiledSimCloneAndClearFaults(t *testing.T) {
	d := buildSimTestbed(t)
	cs, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	pristine := func(sim *CompiledSim) []bool {
		sim.Reset()
		sim.Set("a", true)
		sim.Set("b", true)
		sim.Tick("ck")
		out := make([]bool, len(tbOutputs))
		for i, o := range tbOutputs {
			out[i] = sim.Get(o)
		}
		return out
	}
	base := pristine(cs)

	if err := cs.Inject("u_nand", "Z", true); err != nil {
		t.Fatal(err)
	}
	clone := cs.Clone()
	faulty := pristine(cs)
	cloneOut := pristine(clone)
	for i := range base {
		if faulty[i] != cloneOut[i] {
			t.Fatalf("clone diverges from faulty original at %s", tbOutputs[i])
		}
	}
	differs := false
	for i := range base {
		if base[i] != faulty[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("u_nand/Z SA1 should be visible on some output")
	}
	cs.ClearFaults()
	restored := pristine(cs)
	for i := range base {
		if base[i] != restored[i] {
			t.Fatalf("ClearFaults did not restore fault-free behaviour at %s", tbOutputs[i])
		}
	}
}

func TestCompiledSimRejectsCombLoop(t *testing.T) {
	d := NewDesign("loop", DefaultLibrary())
	m := NewModule("latchpair")
	m.MustPort("sn", In, 1)
	m.MustPort("rn", In, 1)
	m.MustPort("q", Out, 1)
	m.MustInstance("u_a", CellNand2, Pins{{"A", "sn"}, {"B", "qb"}, {"Z", "q"}})
	m.MustInstance("u_b", CellNand2, Pins{{"A", "q"}, {"B", "rn"}, {"Z", "qb"}})
	d.MustAddModule(m)
	if _, err := NewCompiledSim(d, "latchpair"); err == nil {
		t.Fatal("expected a combinational-loop error")
	}
}

func TestSimulatorInjectErrors(t *testing.T) {
	d := buildSimTestbed(t)
	ref, err := NewSimulator(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Inject("no_such_gate", "A", true); err == nil {
		t.Fatal("expected unknown-gate error")
	}
	if err := ref.Inject("u_inv", "XYZ", true); err == nil {
		t.Fatal("expected unknown-port error")
	}
	cs, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Inject("no_such_gate", "A", true); err == nil {
		t.Fatal("expected unknown-gate error")
	}
	if err := cs.Inject("u_inv", "XYZ", true); err == nil {
		t.Fatal("expected unknown-port error")
	}
}

// compiledVsSimulatorProperty checks CompiledSim against the reference
// Simulator on a random netlist: randomPackedDesign plus a latch and a
// DFFR on their own clock-pure enable, so every capture-list opcode runs.
// A seeded interleaving of Set-only settles (several nets at once,
// same-value drives, gate-driven nets), Ticks on the plain, gating, gated
// and latch clocks and on a data input, Inject/ClearFaults, LoadState and
// Reset is compared on every net after every step.  Set-only settles are
// the ones the compiled engine traces instead of sweeping, so unlike the
// packed-vs-scalar properties this catches a trace bug both engines share.
func compiledVsSimulatorProperty(t *testing.T, seed int64) {
	t.Helper()
	rng, d, ins := compiledPropertyDesign(seed)
	ref, err := NewSimulator(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cs.Faults(), ref.Faults()) {
		t.Fatalf("seed %d: compiled fault sites differ from the reference enumeration", seed)
	}
	// Every gate-driven net, keyed to the gate/port pin driving it.
	drivenBy := map[string]string{}
	var driven, seqs []string
	for _, g := range cs.p.gates {
		for oi, n := range g.out {
			if n >= 0 {
				drivenBy[cs.p.names[n]] = g.name + "/" + g.cell.Outputs[oi]
				driven = append(driven, cs.p.names[n])
			}
		}
		if g.seq {
			seqs = append(seqs, g.name)
		}
	}
	inputs := append([]string{"ck", "ck2", "lck"}, ins...)
	clocks := []string{"ck", "ck2", "gck", "lck", ins[rng.Intn(len(ins))]}
	sites := cs.Faults()
	forced := map[string]bool{} // gate/port pins with an active force
	settleBoth := func() {
		if err := ref.Settle(); err != nil {
			t.Fatal(err)
		}
		cs.Settle()
	}
	for i := 0; i < 300; i++ {
		var step string
		switch op := rng.Intn(10); op {
		case 0, 1, 2: // drive 1-3 inputs, a third of the time to their value, then settle
			for n := 1 + rng.Intn(3); n > 0; n-- {
				in := inputs[rng.Intn(len(inputs))]
				v := rng.Intn(2) == 1
				if rng.Intn(3) == 0 {
					v = ref.Get(in)
				}
				step += fmt.Sprintf("set %s=%v; ", in, v)
				ref.Set(in, v)
				cs.SetID(cs.NetID(in), v)
			}
			compareNets(t, fmt.Sprintf("seed %d step %d: %s(before settle)", seed, i, step), ref, cs)
			settleBoth()
			step += "settle"
		case 3: // drive a gate-driven net: the settle must overwrite it
			n := driven[rng.Intn(len(driven))]
			if forced[drivenBy[n]] {
				continue // the engines pin a forced net at different times
			}
			v := !ref.Get(n)
			step = fmt.Sprintf("set driven %s=%v, settle", n, v)
			ref.Set(n, v)
			cs.Set(n, v)
			settleBoth()
		case 4, 5:
			clk := clocks[rng.Intn(len(clocks))]
			if forced[drivenBy[clk]] {
				continue
			}
			step = "tick " + clk
			if err := ref.Tick(clk); err != nil {
				t.Fatal(err)
			}
			cs.Tick(clk)
		case 6: // inject on a settled machine, then settle
			f := sites[rng.Intn(len(sites))]
			if forced[f.Gate+"/"+f.Port] {
				continue
			}
			settleBoth()
			step = "inject " + f.String()
			forced[f.Gate+"/"+f.Port] = true
			if err := ref.Inject(f.Gate, f.Port, f.Value); err != nil {
				t.Fatal(err)
			}
			if err := cs.Inject(f.Gate, f.Port, f.Value); err != nil {
				t.Fatal(err)
			}
			settleBoth()
		case 7: // clear on a settled machine, then settle
			settleBoth()
			step = "clear faults"
			clear(forced)
			ref.ClearFaults()
			cs.ClearFaults()
			settleBoth()
		case 8:
			g := seqs[rng.Intn(len(seqs))]
			v := rng.Intn(2) == 1
			settleBoth()
			step = fmt.Sprintf("load %s=%v", g, v)
			if err := ref.LoadState(g, v); err != nil {
				t.Fatal(err)
			}
			if err := cs.LoadState(g, v); err != nil {
				t.Fatal(err)
			}
			settleBoth()
		case 9:
			step = "reset"
			if err := ref.Reset(); err != nil {
				t.Fatal(err)
			}
			cs.Reset()
		}
		compareNets(t, fmt.Sprintf("seed %d step %d: %s", seed, i, step), ref, cs)
	}
}

// compiledPropertyDesign builds compiledVsSimulatorProperty's netlist for
// seed: a randomPackedDesign plus a latch and a reset flop on a latch
// clock.  It returns the random source, positioned for the stimulus, the
// design and its data inputs.
func compiledPropertyDesign(seed int64) (*rand.Rand, *Design, []string) {
	rng := rand.New(rand.NewSource(seed))
	d, ins, _, obsNets := randomPackedDesign(rng, 6+rng.Intn(30))
	m := d.Modules["dut"]
	m.MustPort("lck", In, 1)
	m.MustInstance("u_xl", CellLatchL, Pins{{"D", obsNets[rng.Intn(len(obsNets))]}, {"EN", "lck"}, {"Q", "xl"}})
	m.MustInstance("u_xf", CellDFFR, Pins{{"D", "xl"}, {"CK", "lck"}, {"R", ins[rng.Intn(len(ins))]}, {"Q", "xf"}})
	return rng, d, ins
}

// TestCompiledSimRandomNetlistsProperty sweeps many random netlists.
func TestCompiledSimRandomNetlistsProperty(t *testing.T) {
	rounds := 24
	if testing.Short() {
		rounds = 6
	}
	for seed := int64(0); seed < int64(rounds); seed++ {
		compiledVsSimulatorProperty(t, seed)
	}
}

// FuzzCompiledVsSimulator lets the fuzzer hunt for a seed where the
// compiled engine diverges from the reference Simulator.
func FuzzCompiledVsSimulator(f *testing.F) {
	for _, s := range []int64{1, 42, 12345} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		compiledVsSimulatorProperty(t, seed)
	})
}

// TestCompiledSimFaultSitesLazy checks the fault-site list built on first
// use from the compiled headers against the reference enumeration over the
// flattened design (same sites, same order, unconnected pins skipped), and
// that clones and packed sims racing to build it share one list.
func TestCompiledSimFaultSitesLazy(t *testing.T) {
	for _, d := range []*Design{buildSimTestbed(t), buildCustomTestbed(t)} {
		ref, err := NewSimulator(d, "dut")
		if err != nil {
			t.Fatal(err)
		}
		base, err := NewCompiledSim(d, "dut")
		if err != nil {
			t.Fatal(err)
		}
		ps, err := NewPackedSim(base)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]SAFault, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				switch i {
				case 0:
					got[i] = base.Faults()
				case 1:
					got[i] = ps.Faults()
				default:
					got[i] = base.Clone().Faults()
				}
			}(i)
		}
		wg.Wait()
		want := ref.Faults()
		for i, sites := range got {
			if !slices.Equal(sites, want) {
				t.Fatalf("%s caller %d: %d sites, reference %d (or order differs)", d.Name, i, len(sites), len(want))
			}
			if &sites[0] != &got[0][0] {
				t.Fatalf("%s caller %d: fault list built twice", d.Name, i)
			}
		}
	}
}
