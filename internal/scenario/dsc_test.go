// The paper's chip pinned: the dsc builtin is the only source of the
// Table-1 DSC controller, so these tests hold its Table-1 values, its
// memory inventory, its SOC netlist and its glue wiring.
package scenario_test

import (
	"errors"
	"testing"

	"steac/internal/memory"
	"steac/internal/obs/bench"
	"steac/internal/scenario"
	"steac/internal/stil"
	"steac/internal/testinfo"
)

// dscChip generates the paper's chip.
func dscChip(t *testing.T) *scenario.Chip {
	t.Helper()
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// dscCore returns the dsc chip's core of that name.
func dscCore(t *testing.T, chip *scenario.Chip, name string) *testinfo.Core {
	t.Helper()
	for _, c := range chip.Cores {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("dsc chip has no core %s", name)
	return nil
}

func TestTable1Fidelity(t *testing.T) {
	chip := dscChip(t)
	usb, tv, jpeg := dscCore(t, chip, "USB"), dscCore(t, chip, "TV"), dscCore(t, chip, "JPEG")
	for _, tc := range []struct {
		core           *testinfo.Core
		ti, to, pi, po int
	}{
		{usb, 18, 4, 221, 104},
		{tv, 6, 1, 25, 40},
		{jpeg, 1, 0, 165, 104},
	} {
		if got := tc.core.TestInputs(); got != tc.ti {
			t.Errorf("%s TI = %d, want %d", tc.core.Name, got, tc.ti)
		}
		if got := tc.core.TestOutputs(); got != tc.to {
			t.Errorf("%s TO = %d, want %d", tc.core.Name, got, tc.to)
		}
		if tc.core.PIs != tc.pi || tc.core.POs != tc.po {
			t.Errorf("%s PI/PO = %d/%d, want %d/%d (Table 1)", tc.core.Name, tc.core.PIs, tc.core.POs, tc.pi, tc.po)
		}
	}
	lens := usb.ChainLengths()
	want := []int{1629, 293, 78, 45}
	for i := range want {
		if lens[i] != want[i] {
			t.Fatalf("USB chain lengths = %v", lens)
		}
	}
	if usb.ScanPatternCount() != 716 || tv.ScanPatternCount() != 229 {
		t.Error("scan pattern counts diverge from Table 1")
	}
	if tv.FunctionalPatternCount() != 202673 || jpeg.FunctionalPatternCount() != 235696 {
		t.Error("functional pattern counts diverge from Table 1")
	}
	if !tv.ScanChains[1].SharedOut {
		t.Error("TV's second chain must share its scan-out with a functional output")
	}
}

func TestCoresSurviveSTILRoundTrip(t *testing.T) {
	for _, c := range dscChip(t).Cores {
		src, err := stil.Emit(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		back, err := stil.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if back.TestInputs() != c.TestInputs() || back.TestOutputs() != c.TestOutputs() {
			t.Fatalf("%s: TI/TO changed through STIL", c.Name)
		}
		if back.ScanPatternCount() != c.ScanPatternCount() ||
			back.FunctionalPatternCount() != c.FunctionalPatternCount() {
			t.Fatalf("%s: pattern counts changed through STIL", c.Name)
		}
	}
}

func TestMemoryInventory(t *testing.T) {
	mems := dscChip(t).Memories
	if len(mems) < 20 {
		t.Fatalf("only %d memories; the paper says tens", len(mems))
	}
	words, sp, tp := 0, 0, 0
	seen := make(map[string]bool)
	for _, m := range mems {
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if seen[m.Name] {
			t.Fatalf("duplicate macro %s", m.Name)
		}
		seen[m.Name] = true
		words += m.Words
		if m.Kind == memory.TwoPort {
			tp++
		} else {
			sp++
		}
	}
	if sp == 0 || tp == 0 {
		t.Fatal("inventory must mix single-port and two-port macros")
	}
	// 10N March C- over the inventory defines the BIST spine; it must sit
	// in the paper's total-test-time regime (~4.37M cycles).
	if cycles := 10 * words; cycles < 4200000 || cycles > 4500000 {
		t.Fatalf("BIST spine = %d cycles, outside the calibrated regime", cycles)
	}
}

func TestBuildSOC(t *testing.T) {
	d, err := dscChip(t).BuildSOC()
	if err != nil {
		t.Fatal(err)
	}
	if d.TopModule() == nil || d.Top != "soc" {
		t.Fatal("missing top")
	}
	for _, m := range []string{"core_USB", "core_TV", "core_JPEG", "pll", "processor", "extmem", "glue"} {
		if d.Module(m) == nil {
			t.Fatalf("module %s missing", m)
		}
	}
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("lint: %v", issues)
	}
	// Chip logic (behavioural blocks) near 170K gates, the paper's 0.3%
	// overhead base.
	logic := 0.0
	for _, name := range d.ModuleNames() {
		m := d.Modules[name]
		if m.Behavioral && m.Attrs["macro"] != "sram" {
			logic += m.AreaOverride
		}
	}
	if logic < 140000 || logic > 220000 {
		t.Fatalf("chip logic = %.0f gates, outside the calibrated regime", logic)
	}
}

func TestResources(t *testing.T) {
	r := dscChip(t).Resources
	if r.TestPins <= 0 || r.FuncPins <= 0 || r.MaxPower <= 0 {
		t.Fatalf("resources = %+v", r)
	}
}

// TestInterconnectsWellFormed: the dsc chip's 24 glue wires join real
// ports of its cores, no sink is driven twice, and every other chip —
// each other builtin and the dsc-derived sized chip — is refused with
// ErrNoInterconnects.
func TestInterconnectsWellFormed(t *testing.T) {
	chip := dscChip(t)
	wires, err := chip.Interconnects()
	if err != nil {
		t.Fatal(err)
	}
	if len(wires) != 24 {
		t.Fatalf("interconnects = %d, want 24", len(wires))
	}
	cores := map[string]*testinfo.Core{}
	for _, c := range chip.Cores {
		cores[c.Name] = c
	}
	sinks := make(map[[2]interface{}]bool)
	for _, w := range wires {
		from, to := cores[w.FromCore], cores[w.ToCore]
		if from == nil {
			t.Fatalf("unknown source %s", w.FromCore)
		}
		if to == nil {
			t.Fatalf("unknown sink %s", w.ToCore)
		}
		if w.FromPO < 0 || w.FromPO >= from.POs {
			t.Fatalf("PO %d out of range for %s", w.FromPO, w.FromCore)
		}
		if w.ToPI < 0 || w.ToPI >= to.PIs {
			t.Fatalf("PI %d out of range for %s", w.ToPI, w.ToCore)
		}
		k := [2]interface{}{w.ToCore, w.ToPI}
		if sinks[k] {
			t.Fatalf("sink %s.pi[%d] driven twice", w.ToCore, w.ToPI)
		}
		sinks[k] = true
	}

	sized, err := bench.SizedSpec(9)
	if err != nil {
		t.Fatal(err)
	}
	sizedChip, err := scenario.Generate(sized, 0)
	if err != nil {
		t.Fatal(err)
	}
	others := []*scenario.Chip{sizedChip}
	for _, name := range []string{"hybrid-power", "manycore", "memory-heavy", "p1500-lbist"} {
		c, err := scenario.GenerateByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, c)
	}
	for _, c := range others {
		if wires, err := c.Interconnects(); !errors.Is(err, scenario.ErrNoInterconnects) || wires != nil {
			t.Errorf("%s: Interconnects = %d wires, %v; want ErrNoInterconnects", c.Scenario, len(wires), err)
		}
	}
}
