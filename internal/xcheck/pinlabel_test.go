package xcheck

import (
	"context"
	"slices"
	"testing"

	"steac/internal/bist"
	"steac/internal/memory"
	"steac/internal/netlist"
	"steac/internal/wrapper"
)

// driverOf finds the flattened primitive gate and output port that drive
// net inside module mod, descending through submodule instances.
func driverOf(d *netlist.Design, mod, net, prefix string) (gate, port string, ok bool) {
	m := d.Modules[mod]
	for _, inst := range m.Instances {
		for _, c := range inst.Conns {
			formal := c.Formal
			if m.Nets[c.Net] != net {
				continue
			}
			if cell, isCell := d.Lib.Cell(inst.Of); isCell {
				if slices.Contains(cell.Outputs, formal) {
					return prefix + inst.Name, formal, true
				}
				continue
			}
			if g, p, ok := driverOf(d, inst.Of, formal, prefix+inst.Name+"/"); ok {
				return g, p, true
			}
		}
	}
	return "", "", false
}

// injectDriver compiles top and pins the driver of net at value.
func injectDriver(t *testing.T, d *netlist.Design, top, net string, value bool) *netlist.CompiledSim {
	t.Helper()
	sim, err := netlist.NewCompiledSim(d, top)
	if err != nil {
		t.Fatal(err)
	}
	gate, port, ok := driverOf(d, top, net, "")
	if !ok {
		t.Fatalf("no driver for %s in %s", net, top)
	}
	if err := sim.Inject(gate, port, value); err != nil {
		t.Fatal(err)
	}
	return sim
}

func firstMismatch(t *testing.T, res EquivResult) string {
	t.Helper()
	if len(res.Mismatches) == 0 {
		t.Fatalf("%s: stuck pin produced no mismatch", res.Name)
	}
	return res.Mismatches[0].String()
}

// The pin labels are built once per bench, not per cycle; a stuck pin must
// still be reported under exactly the label the per-cycle formatting
// produced.  The wanted strings were recorded before the labels moved.
func TestMismatchPinLabels(t *testing.T) {
	t.Run("bench addr", func(t *testing.T) {
		alg := mustAlg(t, "March X")
		mems := PadConfigs([]memory.Config{{Name: "m0", Words: 8, Bits: 2, Kind: memory.SinglePort}})
		d, err := bist.BuildVerifyBench(alg, mems)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := netlist.NewCompiledSim(d, "bench")
		if err != nil {
			t.Fatal(err)
		}
		ps, err := netlist.NewPackedSim(sim)
		if err != nil {
			t.Fatal(err)
		}
		// The session compares lane 63, so the stuck pin rides that lane.
		gate, port, ok := driverOf(d, "bench", "addr0[1]", "")
		if !ok {
			t.Fatal("no driver for addr0[1]")
		}
		if err := ps.InjectLane(goldenLane, gate, port, true); err != nil {
			t.Fatal(err)
		}
		res := EquivResult{Name: "addr"}
		verifyBISTSessions(context.Background(), ps, newBenchPins(sim, mems), alg, mems,
			[]bistSession{{}}, alg.Complexity()*mems[0].Words, &res, 10)
		if got, want := firstMismatch(t, res), "cycle 0 pin addr0[1]: gate=true ref=false"; got != want {
			t.Errorf("first mismatch %q, want %q", got, want)
		}
	})
	t.Run("controller GO", func(t *testing.T) {
		d := netlist.NewDesign("xctl", nil)
		if _, err := bist.GenerateController(d, "ctl", 3); err != nil {
			t.Fatal(err)
		}
		sim := injectDriver(t, d, "ctl", "GO[1]", true)
		res, err := verifyController(context.Background(), "go", sim, 3, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := firstMismatch(t, res), "cycle 0 pin GO[1]: gate=true ref=false"; got != want {
			t.Errorf("first mismatch %q, want %q", got, want)
		}
	})
	t.Run("wrapper wso", func(t *testing.T) {
		core := xcheckCore("wmix", 5, 7, []int{9, 6, 13}, 4, 11)
		d, plan, err := BuildWrapperDesign(core, 2, wrapper.LPT)
		if err != nil {
			t.Fatal(err)
		}
		sim := injectDriver(t, d, "xtop", "wso[1]", false)
		res, _, err := verifyWrapper(context.Background(), "wso", sim, core, plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := firstMismatch(t, res), "cycle 21 pin wso[1]: gate=false ref=true"; got != want {
			t.Errorf("first mismatch %q, want %q", got, want)
		}
	})
}
