package netlist_test

import (
	"testing"

	"steac/internal/bist"
	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
	"steac/internal/scenario"
	"steac/internal/wrapper"
	"steac/internal/xcheck"
)

// The kernel layout of the generated benches the sign-off runs: the DSC
// TV core's wrapper stack and a two-port BIST verify bench.
func TestKernelLayoutGeneratedBenches(t *testing.T) {
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		t.Fatal(err)
	}
	var tv *netlist.Design
	for _, c := range chip.Cores {
		if c.Name == "TV" {
			if tv, _, err = xcheck.BuildWrapperDesign(c, 2, wrapper.LPT); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tv == nil {
		t.Fatal("dsc chip has no TV core")
	}
	mems := xcheck.PadConfigs([]memory.Config{
		{Name: "m0", Words: 24, Bits: 8, Kind: memory.TwoPort},
		{Name: "m1", Words: 16, Bits: 4, Kind: memory.SinglePort},
	})
	bench, err := bist.BuildVerifyBench(march.MarchCMinus(), mems)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		d   *netlist.Design
		top string
	}{{tv, "xtop"}, {bench, "bench"}} {
		cs, err := netlist.NewCompiledSim(b.d, b.top)
		if err != nil {
			t.Fatal(err)
		}
		netlist.CheckKernelLayout(t, cs)
	}
}
