// The paper's chip through test insertion, built from the dsc scenario
// (which imports this package, hence the external test package).
package insertion_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"steac/internal/brains"
	"steac/internal/core"
	"steac/internal/insertion"
	"steac/internal/netlist"
	"steac/internal/scenario"
	"steac/internal/sched"
	"steac/internal/testinfo"
)

// dscInputs builds the paper's DSC chip inputs for insertion the way the
// flow does: the original SOC, the Table 1 cores, the per-memory BRAINS
// compilation and the session-based schedule.
func dscInputs(t *testing.T) (*netlist.Design, []*testinfo.Core, *sched.Schedule, sched.Resources, *brains.Result) {
	t.Helper()
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		t.Fatal(err)
	}
	soc, err := chip.BuildSOC()
	if err != nil {
		t.Fatal(err)
	}
	b, err := brains.CompileContext(context.Background(), chip.Memories, chip.BIST)
	if err != nil {
		t.Fatal(err)
	}
	tests, err := sched.BuildTests(chip.Cores, core.BISTGroups(b))
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.SessionBasedContext(context.Background(), tests, chip.Resources)
	if err != nil {
		t.Fatal(err)
	}
	return soc, chip.Cores, s, chip.Resources, b
}

func emit(t *testing.T, d *netlist.Design) string {
	t.Helper()
	v, err := d.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The DSC chip's DFT netlist is pinned byte for byte: the SHA-256 of its
// Verilog.
func TestInsertDSCGolden(t *testing.T) {
	soc, cores, s, res, b := dscInputs(t)
	ins, err := insertion.Insert(soc, cores, s, res, b.Design, b.Top.Name)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ada36bdb30f84f65e28470ac7f018cead69893fcc21c07dc5dbb417b4b1beb84"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(emit(t, ins.Design)))); got != want {
		t.Fatalf("DSC DFT netlist SHA-256 = %s, want %s", got, want)
	}
}

// The DSC's DFT netlist, aliased BIST modules included, reads back from
// its Verilog and emits the same bytes again.
func TestInsertDSCVerilogRoundTrip(t *testing.T) {
	soc, cores, s, res, b := dscInputs(t)
	ins, err := insertion.Insert(soc, cores, s, res, b.Design, b.Top.Name)
	if err != nil {
		t.Fatal(err)
	}
	v := emit(t, ins.Design)
	back, err := netlist.ParseVerilog(v, nil)
	if err != nil {
		t.Fatal(err)
	}
	back.Top = ins.Design.Top
	if emit(t, back) != v {
		t.Fatal("DSC DFT netlist round trip is not a fixed point")
	}
}

// Insert shares the modules of its inputs with the result, so it must
// never change them: the original SOC and the BIST design emit the same
// bytes before and after, and a second insertion from the same inputs
// emits the same DFT netlist as the first.
func TestInsertLeavesInputsUntouched(t *testing.T) {
	soc, cores, s, res, b := dscInputs(t)
	socBefore, bistBefore := emit(t, soc), emit(t, b.Design)
	first, err := insertion.Insert(soc, cores, s, res, b.Design, b.Top.Name)
	if err != nil {
		t.Fatal(err)
	}
	v1 := emit(t, first.Design)
	second, err := insertion.Insert(soc, cores, s, res, b.Design, b.Top.Name)
	if err != nil {
		t.Fatal(err)
	}
	if v2 := emit(t, second.Design); v1 != v2 {
		t.Fatal("two insertions from the same inputs emit different netlists")
	}
	if emit(t, soc) != socBefore {
		t.Fatal("Insert changed the original SOC design")
	}
	if emit(t, b.Design) != bistBefore {
		t.Fatal("Insert changed the BIST design")
	}
	if emit(t, first.Design) != v1 {
		t.Fatal("a second insertion changed the first one's result")
	}
}
