package netlist

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// comparePackedLane checks one packed lane against a scalar CompiledSim on
// every observable net.
func comparePackedLane(t *testing.T, step string, lane int, nets []string, ids []int,
	ps *PackedSim, ref *CompiledSim) {
	t.Helper()
	for i, n := range nets {
		if got, want := ps.GetLaneID(ids[i], lane), ref.Get(n); got != want {
			t.Fatalf("%s: lane %d net %s: packed=%v scalar=%v", step, lane, n, got, want)
		}
	}
}

// runPackedVsScalar drives a PackedSim carrying faults (lane i = faults[i],
// lane 63 fault-free) in lockstep with one scalar CompiledSim per lane,
// comparing every observable net after every Settle and Tick, and checks
// the packed detection verdict (first cycle with (word ^ golden-broadcast)
// != 0 on an observable) equals the scalar one per fault.
func runPackedVsScalar(t *testing.T, d *Design, top string, ins, clocks, obsNets []string,
	faults []SAFault, seed int64, cycles int) {
	t.Helper()
	if len(faults) > Lanes-1 {
		t.Fatalf("at most %d faults per packed pass, got %d", Lanes-1, len(faults))
	}
	base, err := NewCompiledSim(d, top)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPackedSim(base)
	if err != nil {
		t.Fatal(err)
	}
	// One scalar machine per lane: faulty clones for lanes 0..n-1, the
	// fault-free base standing in for every remaining lane (an uninjected
	// packed lane must behave exactly like the golden machine).
	scalars := make([]*CompiledSim, len(faults))
	for i, f := range faults {
		c := base.Clone()
		if err := c.Inject(f.Gate, f.Port, f.Value); err != nil {
			t.Fatalf("scalar inject %v: %v", f, err)
		}
		if perr := ps.InjectLane(i, f.Gate, f.Port, f.Value); perr != nil {
			t.Fatalf("packed inject %v: %v", f, perr)
		}
		scalars[i] = c
	}
	ids := make([]int, len(obsNets))
	for i, n := range obsNets {
		ids[i] = ps.NetID(n)
		if ids[i] < 0 {
			t.Fatalf("unknown observable net %s", n)
		}
	}
	firstDivPacked := make([]int, len(faults))
	firstDivScalar := make([]int, len(faults))
	for i := range firstDivPacked {
		firstDivPacked[i], firstDivScalar[i] = -1, -1
	}
	rng := rand.New(rand.NewSource(seed))
	step := 0
	observe := func(label string) {
		t.Helper()
		for lane, ref := range scalars {
			comparePackedLane(t, label, lane, obsNets, ids, ps, ref)
		}
		comparePackedLane(t, label, Lanes-1, obsNets, ids, ps, base)
		// Detection verdicts: packed word-vs-golden diff against per-lane
		// scalar miscompare, at the same step index.
		for i, id := range ids {
			w := ps.GetWordID(id)
			golden := uint64(0)
			if w>>(Lanes-1)&1 == 1 {
				golden = ^uint64(0)
			}
			diff := w ^ golden
			for lane := range scalars {
				if diff>>uint(lane)&1 == 1 && firstDivPacked[lane] < 0 {
					firstDivPacked[lane] = step
				}
				if scalars[lane].Get(obsNets[i]) != base.Get(obsNets[i]) && firstDivScalar[lane] < 0 {
					firstDivScalar[lane] = step
				}
			}
		}
		step++
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for _, in := range ins {
			v := rng.Intn(2) == 1
			ps.Set(in, v)
			base.Set(in, v)
			for _, c := range scalars {
				c.Set(in, v)
			}
		}
		ps.Settle()
		base.Settle()
		for _, c := range scalars {
			c.Settle()
		}
		observe(fmt.Sprintf("cycle %d settle", cyc))
		clk := clocks[rng.Intn(len(clocks))]
		ps.Tick(clk)
		base.Tick(clk)
		for _, c := range scalars {
			c.Tick(clk)
		}
		observe(fmt.Sprintf("cycle %d tick %s", cyc, clk))
	}
	for lane := range scalars {
		if firstDivPacked[lane] != firstDivScalar[lane] {
			t.Fatalf("fault %v: packed first divergence %d, scalar %d",
				faults[lane], firstDivPacked[lane], firstDivScalar[lane])
		}
	}
}

// TestPackedSimMatchesScalar packs random fault subsets of the full
// testbed (every library cell, gated clock, latch, hierarchy) and checks
// every lane against its scalar CompiledSim twin, including the golden
// lane and the detection-verdict convention.
func TestPackedSimMatchesScalar(t *testing.T) {
	d := buildSimTestbed(t)
	probe, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	sites := probe.Faults()
	ins := []string{"rst", "en", "a", "b", "s"}
	clocks := []string{"ck", "ck2", "en"}
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		// Vary the lane count to cover the <63-fault remainder path and a
		// full word.
		n := []int{1, 5, 17, 40, 63, 63}[trial]
		if n > len(sites) {
			n = len(sites)
		}
		faults := make([]SAFault, 0, n)
		for _, i := range rng.Perm(len(sites))[:n] {
			faults = append(faults, sites[i])
		}
		runPackedVsScalar(t, d, "dut", ins, clocks, tbOutputs, faults, int64(trial), 50)
	}
}

// randomPackedDesign generates a random acyclic netlist: a gated clock, a
// mix of every library cell, inputs drawn only from earlier nets (no comb
// loops), and one wide level: 16 to 24 combinational gates of one type
// and as many flops of one type on ck, all reading the newest net, so the
// gates share a level and the flops a capture list, and each group is
// swept as one homogeneous run beside the random gates' merged short
// runs.  Returns the design plus its input, clock and observable nets.
func randomPackedDesign(rng *rand.Rand, nGates int) (*Design, []string, []string, []string) {
	d := NewDesign("rnd", DefaultLibrary())
	m := NewModule("dut")
	ins := []string{"i0", "i1", "i2", "i3"}
	for _, p := range append([]string{"ck", "ck2"}, ins...) {
		m.MustPort(p, In, 1)
	}
	nets := append([]string{}, ins...)
	pick := func() string { return nets[rng.Intn(len(nets))] }
	// A gated clock keeps the generic Tick path exercised.
	m.MustInstance("u_gck", CellAnd2, Pins{{"A", "ck2"}, {"B", "i0"}, {"Z", "gck"}})
	clocks := []string{"ck", "gck"}
	var obsNets []string
	// gate adds one cell of the given kind whose first input reads first,
	// the other data inputs in(), clocked by ck.
	gate := func(kind int, name, z, first string, in func() string, ck string) {
		switch kind {
		case 0:
			m.MustInstance(name, CellInv, Pins{{"A", first}, {"Z", z}})
		case 1:
			m.MustInstance(name, CellBuf, Pins{{"A", first}, {"Z", z}})
		case 2:
			m.MustInstance(name, CellNand2, Pins{{"A", first}, {"B", in()}, {"Z", z}})
		case 3:
			m.MustInstance(name, CellNor2, Pins{{"A", first}, {"B", in()}, {"Z", z}})
		case 4:
			m.MustInstance(name, CellAnd2, Pins{{"A", first}, {"B", in()}, {"Z", z}})
		case 5:
			m.MustInstance(name, CellOr2, Pins{{"A", first}, {"B", in()}, {"Z", z}})
		case 6:
			m.MustInstance(name, CellXor2, Pins{{"A", first}, {"B", in()}, {"Z", z}})
		case 7:
			m.MustInstance(name, CellXnor2, Pins{{"A", first}, {"B", in()}, {"Z", z}})
		case 8:
			m.MustInstance(name, CellMux2, Pins{{"A", first}, {"B", in()}, {"S", in()}, {"Z", z}})
		case 9:
			m.MustInstance(name, CellDFF, Pins{{"D", first}, {"CK", ck}, {"Q", z}})
		case 10:
			m.MustInstance(name, CellSDFF, Pins{{"D", first}, {"SI", in()}, {"SE", in()}, {"CK", ck}, {"Q", z}})
		case 11:
			m.MustInstance(name, CellDFFR, Pins{{"D", first}, {"CK", ck}, {"R", in()}, {"Q", z}})
		case 12:
			m.MustInstance(name, CellLatchL, Pins{{"D", first}, {"EN", in()}, {"Q", z}})
		}
		nets = append(nets, z)
		obsNets = append(obsNets, z)
	}
	wideAt := rng.Intn(nGates)
	for gi := 0; gi < nGates; gi++ {
		if gi == wideAt {
			// Every wide gate reads w first and w or primary inputs
			// elsewhere, so all sit one level past w.  Latches are left
			// out: their enable would be a data net, not a clock.
			w, n := nets[len(nets)-1], 16+rng.Intn(9)
			in := func() string {
				if rng.Intn(2) == 0 {
					return w
				}
				return ins[rng.Intn(len(ins))]
			}
			for j, kind := range []int{rng.Intn(9), 9 + rng.Intn(3)} {
				for k := 0; k < n; k++ {
					gate(kind, fmt.Sprintf("u_w%d_%d", j, k), fmt.Sprintf("w%d_%d", j, k), w, in, "ck")
				}
			}
		}
		gate(rng.Intn(13), fmt.Sprintf("u_g%d", gi), fmt.Sprintf("z%d", gi), pick(), pick, clocks[rng.Intn(2)])
	}
	d.MustAddModule(m)
	d.Top = "dut"
	return d, ins, clocks, obsNets
}

// packedVsScalarProperty is one property-check round for a seed: random
// netlist, random fault subset, random stimulus, bit-identical lanes and
// detection verdicts.
func packedVsScalarProperty(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, ins, clocks, obsNets := randomPackedDesign(rng, 6+rng.Intn(30))
	probe, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	sites := probe.Faults()
	n := 1 + rng.Intn(Lanes-1)
	if n > len(sites) {
		n = len(sites)
	}
	faults := make([]SAFault, 0, n)
	for _, i := range rng.Perm(len(sites))[:n] {
		faults = append(faults, sites[i])
	}
	runPackedVsScalar(t, d, "dut", ins, clocks, obsNets, faults, seed^0x5a5a, 30)
}

// TestPackedSimRandomNetlistsProperty sweeps many random netlists.
func TestPackedSimRandomNetlistsProperty(t *testing.T) {
	rounds := 24
	if testing.Short() {
		rounds = 6
	}
	for seed := int64(0); seed < int64(rounds); seed++ {
		packedVsScalarProperty(t, seed)
	}
}

// FuzzPackedVsScalar lets the fuzzer hunt for a seed where a packed lane
// diverges from its scalar twin.
func FuzzPackedVsScalar(f *testing.F) {
	for _, s := range []int64{1, 42, 12345} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		packedVsScalarProperty(t, seed)
	})
}

// TestPackedSimInjectErrors checks packed injection rejects exactly what
// the scalar engine rejects.
func TestPackedSimInjectErrors(t *testing.T) {
	d := buildSimTestbed(t)
	base, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPackedSim(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.InjectLane(0, "no_such_gate", "A", true); err == nil {
		t.Fatal("expected unknown-gate error")
	}
	if err := ps.InjectLane(0, "u_inv", "XYZ", true); err == nil {
		t.Fatal("expected unknown-port error")
	}
	if err := ps.InjectLane(Lanes, "u_inv", "A", true); err == nil {
		t.Fatal("expected lane-range error")
	}
	if err := base.Inject("u_inv", "A", true); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPackedSim(base); err == nil {
		t.Fatal("expected fault-free-base error")
	}
}

// TestPackedSimClearFaultsAndReset proves ClearFaults + Reset restore
// golden behaviour on every lane.
func TestPackedSimClearFaultsAndReset(t *testing.T) {
	d := buildSimTestbed(t)
	base, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPackedSim(base)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []uint64 {
		ps.Reset()
		ps.Set("a", true)
		ps.Set("b", true)
		ps.Tick("ck")
		out := make([]uint64, len(tbOutputs))
		for i, o := range tbOutputs {
			out[i] = ps.GetWordID(ps.NetID(o))
		}
		return out
	}
	clean := run()
	for _, w := range clean {
		if w != 0 && w != ^uint64(0) {
			t.Fatalf("fault-free lanes disagree: %#x", w)
		}
	}
	if err := ps.InjectLane(3, "u_nand", "Z", true); err != nil {
		t.Fatal(err)
	}
	faulty := run()
	differs := false
	for i := range clean {
		if faulty[i] != clean[i] {
			differs = true
			if faulty[i]^clean[i] != 1<<3 {
				t.Fatalf("fault leaked outside lane 3 on %s: clean=%#x faulty=%#x",
					tbOutputs[i], clean[i], faulty[i])
			}
		}
	}
	if !differs {
		t.Fatal("u_nand/Z SA1 should be visible on some output")
	}
	ps.ClearFaults()
	restored := run()
	for i := range clean {
		if restored[i] != clean[i] {
			t.Fatalf("ClearFaults did not restore lane behaviour at %s", tbOutputs[i])
		}
	}
}

// TestPackedSimMatchesScalarProperty drives a seeded random interleaving of
// every PackedSim mutator against one scalar CompiledSim twin per lane, on
// the library testbed and on the user-library testbed (custom comb and
// sequential cells, unconnected pins).
func TestPackedSimMatchesScalarProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		packedMutatorProperty(t, buildSimTestbed(t), "gck", seed)
		packedMutatorProperty(t, buildCustomTestbed(t), "y", seed)
	}
}

// packedMutatorProperty compares every named net of every lane with the
// lane's scalar twin after every step.  Words are driven per lane (each
// twin gets its own bit), Ticks come with no explicit Settle before them,
// forces go to random lanes, and the steps that unsettle the packed machine
// without touching an input (InjectLane, ClearFaults) are followed by a
// Settle with nothing else changed, so a missed unsettle shows up as stale
// nets.  Re-driving a net with the word it holds must keep the machine
// settled.
func packedMutatorProperty(t *testing.T, d *Design, driven string, seed int64) {
	t.Helper()
	base, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPackedSim(base)
	if err != nil {
		t.Fatal(err)
	}
	twins := make([]*CompiledSim, Lanes)
	forced := make([]map[string]bool, Lanes) // per lane: gate/port pins with a force
	for l := range twins {
		twins[l] = base.Clone()
		forced[l] = map[string]bool{}
	}
	var inputs, nets []string
	var ids []int
	for _, p := range d.Modules["dut"].Ports {
		if p.Dir == In {
			inputs = append(inputs, p.Name)
		}
	}
	for id, n := range base.p.names {
		if !strings.HasPrefix(n, "$") { // reserved nets are engine-private
			nets, ids = append(nets, n), append(ids, id)
		}
	}
	// A gate-driven clock takes the generic Tick path; pulsing it is well
	// defined per lane even while its driver's output is forced.
	clocks := []string{"ck", "en", "rst", driven}
	sites := base.Faults()
	var outNets []int // nets with an output force on some lane
	rng := rand.New(rand.NewSource(seed))
	compare := func(step string) {
		t.Helper()
		for l, tw := range twins {
			for i, id := range ids {
				if got, want := ps.GetLaneID(id, l), tw.GetID(id); got != want {
					t.Fatalf("seed %d %s: lane %d net %s: packed=%v scalar=%v", seed, step, l, nets[i], got, want)
				}
			}
		}
	}
	settleAll := func() {
		ps.Settle()
		for _, tw := range twins {
			tw.Settle()
		}
	}
	setWord := func(id int, w uint64) {
		ps.SetWordID(id, w)
		for l, tw := range twins {
			tw.SetID(id, w>>uint(l)&1 == 1)
		}
	}
	for i := 0; i < 300; i++ {
		var step string
		switch rng.Intn(9) {
		case 0: // a different bit per lane
			in := inputs[rng.Intn(len(inputs))]
			w := rng.Uint64()
			step = fmt.Sprintf("set word %s=%#x", in, w)
			setWord(ps.NetID(in), w)
		case 1:
			in := inputs[rng.Intn(len(inputs))]
			v := rng.Intn(2) == 1
			step = fmt.Sprintf("set %s=%v", in, v)
			ps.Set(in, v)
			for _, tw := range twins {
				tw.Set(in, v)
			}
		case 2: // settle, then re-drive an input with the word it holds
			settleAll()
			compare("settle")
			in := inputs[rng.Intn(len(inputs))]
			id := ps.NetID(in)
			w := ps.GetWordID(id)
			step = "same-value set " + in
			ps.SetWordID(id, w)
			if w == 0 || w == ^uint64(0) {
				ps.Set(in, w != 0)
			}
			if !ps.settled {
				t.Fatalf("seed %d step %d: re-driving %s with its own word unsettled the machine", seed, i, in)
			}
		case 3, 4: // no explicit Settle before the Tick
			clk := clocks[rng.Intn(len(clocks))]
			step = "tick " + clk
			ps.Tick(clk)
			for _, tw := range twins {
				tw.Tick(clk)
			}
		case 5: // inject one lane of a settled machine, then settle
			f := sites[rng.Intn(len(sites))]
			l := rng.Intn(Lanes)
			if forced[l][f.Gate+"/"+f.Port] {
				continue
			}
			settleAll()
			step = fmt.Sprintf("inject lane %d %s", l, f)
			forced[l][f.Gate+"/"+f.Port] = true
			if err := ps.InjectLane(l, f.Gate, f.Port, f.Value); err != nil {
				t.Fatal(err)
			}
			if err := twins[l].Inject(f.Gate, f.Port, f.Value); err != nil {
				t.Fatal(err)
			}
			g := &base.gates[base.p.byName[f.Gate]]
			for oi, port := range g.cell.Outputs {
				if port == f.Port {
					outNets = append(outNets, int(g.out[oi]))
				}
			}
			compare(step + " (before settle)")
			settleAll()
		case 6: // an external word on an output-forced net sticks on the forced lanes
			if len(outNets) == 0 {
				continue
			}
			id := outNets[rng.Intn(len(outNets))]
			w := rng.Uint64()
			step = fmt.Sprintf("set forced net %s=%#x", base.p.names[id], w)
			setWord(id, w)
		case 7: // clear a settled machine, then settle
			settleAll()
			step = "clear faults"
			ps.ClearFaults()
			for l, tw := range twins {
				tw.ClearFaults()
				clear(forced[l])
			}
			outNets = outNets[:0]
			settleAll()
		case 8:
			step = "reset"
			ps.Reset()
			for _, tw := range twins {
				tw.Reset()
			}
		}
		compare(fmt.Sprintf("step %d: %s", i, step))
	}
}

// TestPackedSimKernelIsolation pins kernel and capture-list copy-on-write:
// two PackedSims built from one base, and the base CompiledSim itself, see
// none of each other's patches through InjectLane, ClearFaults or Inject.
func TestPackedSimKernelIsolation(t *testing.T) {
	d := buildSimTestbed(t)
	base, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]kOp(nil), base.p.kern...)
	pristineCapts := slices.Clone(base.p.capts)
	a, err := NewPackedSim(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPackedSim(base)
	if err != nil {
		t.Fatal(err)
	}
	nandZ := SAFault{Gate: "u_nand", Port: "Z", Value: true}
	xorA := SAFault{Gate: "u_xor", Port: "A", Value: false}
	invA := SAFault{Gate: "u_inv", Port: "A", Value: true}
	sdffSI := SAFault{Gate: "u_sdff", Port: "SI", Value: true}
	// check replays a fixed stimulus on ps and on one scalar machine per
	// faulted lane (plus a fault-free one for the rest), lane for lane.  The
	// compiled program's kernel must be untouched, and a fault-free ps must
	// run the pristine entries again.
	check := func(step string, ps *PackedSim, lanes map[int]SAFault) {
		t.Helper()
		if !slices.Equal(base.p.kern, pristine) || !slices.Equal(base.p.capts, pristineCapts) {
			t.Fatalf("%s: compiled kernel or capture lists were patched", step)
		}
		if len(lanes) == 0 && (!slices.Equal(ps.kern, pristine) || !slices.Equal(ps.capts, pristineCapts)) {
			t.Fatalf("%s: fault-free packed sim still runs patched kernel or capture entries", step)
		}
		golden, err := NewCompiledSim(d, "dut")
		if err != nil {
			t.Fatal(err)
		}
		refs := map[int]*CompiledSim{}
		for l, f := range lanes {
			refs[l] = golden.Clone()
			if err := refs[l].Inject(f.Gate, f.Port, f.Value); err != nil {
				t.Fatal(err)
			}
		}
		ps.Reset()
		rng := rand.New(rand.NewSource(3))
		for cyc := 0; cyc < 20; cyc++ {
			for _, in := range []string{"rst", "en", "a", "b", "s"} {
				v := rng.Intn(2) == 1
				ps.Set(in, v)
				golden.Set(in, v)
				for _, r := range refs {
					r.Set(in, v)
				}
			}
			clk := []string{"ck", "ck2", "en"}[rng.Intn(3)]
			ps.Tick(clk)
			golden.Tick(clk)
			for _, r := range refs {
				r.Tick(clk)
			}
			for l := 0; l < Lanes; l++ {
				ref, ok := refs[l]
				if !ok {
					ref = golden
				}
				for _, o := range tbOutputs {
					if got, want := ps.GetLaneID(ps.NetID(o), l), ref.Get(o); got != want {
						t.Fatalf("%s: cycle %d lane %d %s: packed=%v scalar=%v", step, cyc, l, o, got, want)
					}
				}
			}
		}
	}
	if err := a.InjectLane(3, nandZ.Gate, nandZ.Port, nandZ.Value); err != nil {
		t.Fatal(err)
	}
	check("a after its inject", a, map[int]SAFault{3: nandZ})
	check("b after a's inject", b, nil)
	if err := b.InjectLane(5, xorA.Gate, xorA.Port, xorA.Value); err != nil {
		t.Fatal(err)
	}
	if err := b.InjectLane(6, sdffSI.Gate, sdffSI.Port, sdffSI.Value); err != nil {
		t.Fatal(err)
	}
	a.ClearFaults()
	check("a after its clear", a, nil)
	check("b after a's clear", b, map[int]SAFault{5: xorA, 6: sdffSI})
	if err := base.Inject(invA.Gate, invA.Port, invA.Value); err != nil {
		t.Fatal(err)
	}
	check("a after the base's inject", a, nil)
	check("b after the base's inject", b, map[int]SAFault{5: xorA, 6: sdffSI})
	if err := a.InjectLane(7, invA.Gate, invA.Port, !invA.Value); err != nil {
		t.Fatal(err)
	}
	base.ClearFaults()
	b.ClearFaults()
	check("a after the base's and b's clear", a, map[int]SAFault{7: {Gate: invA.Gate, Port: invA.Port, Value: !invA.Value}})
	check("b after its clear", b, nil)
	// The base itself is back to fault-free and still matches a fresh build.
	ref, err := NewCompiledSim(d, "dut")
	if err != nil {
		t.Fatal(err)
	}
	base.Reset()
	for _, in := range []string{"a", "b", "s"} {
		base.Set(in, true)
		ref.Set(in, true)
	}
	base.Tick("ck")
	ref.Tick("ck")
	for _, o := range tbOutputs {
		if base.Get(o) != ref.Get(o) {
			t.Fatalf("base after the packed sims' patches: %s differs from a fresh build", o)
		}
	}
}
