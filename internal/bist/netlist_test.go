package bist

import (
	"fmt"
	"strings"
	"testing"

	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
)

// buildSeqTPGBench wires one sequencer and one TPG into a testbench module
// with the RAM left external (the test emulates it cycle by cycle).  It is
// a thin wrapper over the exported BuildVerifyBench, which the xcheck
// subsystem drives the same way.
func buildSeqTPGBench(t *testing.T, alg march.Algorithm, cfg memory.Config) (*netlist.Design, *netlist.Simulator) {
	t.Helper()
	d, err := BuildVerifyBench(alg, []memory.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netlist.NewSimulator(d, "bench")
	if err != nil {
		t.Fatal(err)
	}
	return d, sim
}

func busToInt(bits []bool) int {
	v := 0
	for i, b := range bits {
		if b {
			v |= 1 << i
		}
	}
	return v
}

// runGateLevel clocks the bench, emulating a synchronous flow-through RAM
// in Go.  injectSA1 optionally forces a read bit high at one address,
// emulating a stuck-at-1 defect.  It returns the cycle count until DONE and
// the final FAIL flag.
func runGateLevel(t *testing.T, sim *netlist.Simulator, cfg memory.Config, injectSA1 int, maxCycles int) (int, bool) {
	t.Helper()
	mem := make([]uint64, cfg.Words)
	// Reset pulse.
	sim.Set("rst", true)
	sim.Set("en", false)
	if err := sim.Tick("ck"); err != nil {
		t.Fatal(err)
	}
	sim.Set("rst", false)
	sim.Set("en", true)
	for cycle := 0; cycle < maxCycles; cycle++ {
		if err := sim.Settle(); err != nil {
			t.Fatal(err)
		}
		if sim.Get("done") {
			return cycle, sim.Get("fail")
		}
		addr := busToInt(sim.GetBus("addr0", cfg.AddrBits()))
		word := mem[addr]
		if injectSA1 >= 0 && addr == injectSA1 {
			word |= 1
		}
		for b := 0; b < cfg.Bits; b++ {
			sim.Set(fmt.Sprintf("q0[%d]", b), word>>b&1 == 1)
		}
		if err := sim.Settle(); err != nil {
			t.Fatal(err)
		}
		we := sim.Get("we0")
		data := uint64(busToInt(sim.GetBus("d0", cfg.Bits)))
		if err := sim.Tick("ck"); err != nil {
			t.Fatal(err)
		}
		if we {
			mem[addr] = data
		}
	}
	t.Fatalf("DONE never asserted within %d cycles", maxCycles)
	return 0, false
}

func TestGateLevelMarchXFaultFree(t *testing.T) {
	cfg := memory.Config{Name: "r8x2", Words: 8, Bits: 2}
	_, sim := buildSeqTPGBench(t, march.MarchX(), cfg)
	cycles, fail := runGateLevel(t, sim, cfg, -1, 200)
	if fail {
		t.Fatal("fault-free gate-level run raised FAIL")
	}
	// March X is 6N; the gate-level pipeline finishes in exactly 6*8 cycles.
	if want := 6 * 8; cycles != want {
		t.Fatalf("gate-level cycles = %d, want %d", cycles, want)
	}
}

func TestGateLevelMarchXDetectsStuckAt(t *testing.T) {
	cfg := memory.Config{Name: "r8x2", Words: 8, Bits: 2}
	_, sim := buildSeqTPGBench(t, march.MarchX(), cfg)
	_, fail := runGateLevel(t, sim, cfg, 3, 200)
	if !fail {
		t.Fatal("gate-level BIST missed stuck-at-1 at address 3")
	}
}

func TestGateLevelMatchesEngineCycleCount(t *testing.T) {
	// Cross-check the generated hardware against the behavioural engine
	// for a second algorithm and geometry.
	cfg := memory.Config{Name: "r16x4", Words: 16, Bits: 4}
	_, sim := buildSeqTPGBench(t, march.MATSPlus(), cfg)
	cycles, fail := runGateLevel(t, sim, cfg, -1, 400)
	if fail {
		t.Fatal("fault-free run failed")
	}
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine([]Group{{Name: "g", Alg: march.MATSPlus(),
		Mems: []MemoryUnderTest{{RAM: m}}}}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	if res := mustRun(t, e); res.Cycles != cycles {
		t.Fatalf("engine %d cycles, gate level %d", res.Cycles, cycles)
	}
}

func TestGateLevelController(t *testing.T) {
	d := netlist.NewDesign("d", nil)
	if _, err := GenerateController(d, "ctl", 2); err != nil {
		t.Fatal(err)
	}
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("controller lint: %v", issues)
	}
	sim, err := netlist.NewSimulator(d, "ctl")
	if err != nil {
		t.Fatal(err)
	}
	tick := func() {
		t.Helper()
		if err := sim.Tick(PinMBC); err != nil {
			t.Fatal(err)
		}
	}
	// Reset, then start.
	sim.Set(PinMBR, true)
	tick()
	sim.Set(PinMBR, false)
	sim.Set(PinMBS, true)
	tick()
	sim.Set(PinMBS, false)
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	if !sim.Get("GO[0]") || sim.Get("GO[1]") {
		t.Fatalf("after start: GO = %v,%v, want 1,0", sim.Get("GO[0]"), sim.Get("GO[1]"))
	}
	// Group 0 finishes clean.
	sim.Set("GDONE[0]", true)
	tick()
	sim.Set("GDONE[0]", false)
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	if sim.Get("GO[0]") || !sim.Get("GO[1]") {
		t.Fatal("controller did not advance to group 1")
	}
	// Group 1 reports a failure, then finishes.
	sim.Set("GFAIL[1]", true)
	tick()
	sim.Set("GFAIL[1]", false)
	sim.Set("GDONE[1]", true)
	tick()
	sim.Set("GDONE[1]", false)
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	if !sim.Get(PinMBO) {
		t.Fatal("MBO not asserted after last group")
	}
	if sim.Get(PinMRD) {
		t.Fatal("MRD reports pass despite group-1 failure")
	}
	if sim.Get("GO[0]") || sim.Get("GO[1]") {
		t.Fatal("GO still active after BIST over")
	}
}

func TestGenerateBISTAssembly(t *testing.T) {
	d := netlist.NewDesign("soc", nil)
	groups := []GroupSpec{
		{Name: "sp", Alg: march.MarchCMinus(), Mems: []memory.Config{
			{Name: "m0", Words: 256, Bits: 8},
			{Name: "m1", Words: 512, Bits: 16},
		}},
		{Name: "tp", Alg: march.MarchCMinus(), Mems: []memory.Config{
			{Name: "m2", Words: 128, Bits: 32, Kind: memory.TwoPort},
		}},
	}
	top, report, err := GenerateBIST(d, "membist", groups)
	if err != nil {
		t.Fatal(err)
	}
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("assembly lint: %v", issues)
	}
	if report.Controller <= 0 || report.Sequencers <= 0 || report.TPGs <= 0 {
		t.Fatalf("area report has empty entries: %+v", report)
	}
	if report.Total() != report.Controller+report.Sequencers+report.TPGs {
		t.Fatal("area total mismatch")
	}
	if top.Name != "membist" {
		t.Fatalf("top name %s", top.Name)
	}
	v, err := d.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"module membist", "membist_ctl", "membist_tpg_m2", "ram_m0"} {
		if !strings.Contains(v, want) {
			t.Fatalf("emitted verilog missing %q", want)
		}
	}
}

// Memories of one shape share one generated TPG body, and groups of one
// algorithm one sequencer body; each still gets its own module declaration
// under its own name, byte for byte what GenerateTPG and GenerateSequencer
// emit, and its own share of the area report.
func TestGenerateBISTSharesBodies(t *testing.T) {
	d := netlist.NewDesign("soc", nil)
	shape := memory.Config{Words: 256, Bits: 8}
	m0, m1 := shape, shape
	m0.Name, m1.Name = "m0", "m1"
	groups := []GroupSpec{
		{Name: "a", Alg: march.MarchCMinus(), Mems: []memory.Config{m0}},
		{Name: "b", Alg: march.MarchCMinus(), Mems: []memory.Config{m1}},
	}
	_, report, err := GenerateBIST(d, "membist", groups)
	if err != nil {
		t.Fatal(err)
	}
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("assembly lint: %v", issues)
	}
	for name, of := range map[string]string{
		"membist_tpg_m0": "", "membist_tpg_m1": "membist_tpg_m0",
		"membist_seq_a": "", "membist_seq_b": "membist_seq_a",
	} {
		if got := d.Module(name).AliasOf(); got != of {
			t.Errorf("%s is an alias of %q, want %q", name, got, of)
		}
	}
	v, err := d.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}

	// The reference: every block generated afresh in a design of its own.
	ref := netlist.NewDesign("ref", nil)
	for _, name := range []string{"membist_tpg_m0", "membist_tpg_m1"} {
		if _, err := GenerateTPG(ref, name, shape); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"membist_seq_a", "membist_seq_b"} {
		if _, err := GenerateSequencer(ref, name, march.MarchCMinus()); err != nil {
			t.Fatal(err)
		}
	}
	rv, err := ref.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	decl := func(v, name string) string {
		for _, m := range strings.Split(v, "\n\n") {
			if strings.HasPrefix(m, "module "+name+"(") {
				return strings.TrimPrefix(m, "module "+name+"(")
			}
		}
		t.Fatalf("no declaration of module %s", name)
		return ""
	}
	for _, pair := range [][2]string{{"membist_tpg_m0", "membist_tpg_m1"}, {"membist_seq_a", "membist_seq_b"}} {
		first, second := decl(v, pair[0]), decl(v, pair[1])
		if first != second {
			t.Errorf("%s and %s declare different bodies", pair[0], pair[1])
		}
		for _, name := range pair {
			if decl(v, name) != decl(rv, name) {
				t.Errorf("%s differs from a freshly generated module", name)
			}
		}
	}
	tpgArea, err := ref.Area("membist_tpg_m0")
	if err != nil {
		t.Fatal(err)
	}
	seqArea, err := ref.Area("membist_seq_a")
	if err != nil {
		t.Fatal(err)
	}
	if report.TPGs != 2*tpgArea || report.Sequencers != 2*seqArea {
		t.Fatalf("area report %+v, want TPGs %v and sequencers %v", report, 2*tpgArea, 2*seqArea)
	}
}

func TestGenerateBISTErrors(t *testing.T) {
	d := netlist.NewDesign("soc", nil)
	if _, _, err := GenerateBIST(d, "b", nil); err == nil {
		t.Fatal("no groups accepted")
	}
	if _, _, err := GenerateBIST(d, "b2", []GroupSpec{{Name: "g", Alg: march.MSCAN()}}); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := GenerateController(d, "c0", 0); err == nil {
		t.Fatal("0-group controller accepted")
	}
	if _, err := GenerateTPG(d, "t0", memory.Config{Name: "bad", Words: 0, Bits: 0}); err == nil {
		t.Fatal("bad memory config accepted")
	}
	if _, err := GenerateSequencer(d, "s0", march.Algorithm{Name: "empty"}); err == nil {
		t.Fatal("empty algorithm accepted")
	}
}

func TestTPGAreaScalesWithGeometry(t *testing.T) {
	d := netlist.NewDesign("a", nil)
	small, err := GenerateTPG(d, "tpg_small", memory.Config{Name: "s", Words: 64, Bits: 4})
	if err != nil {
		t.Fatal(err)
	}
	big, err := GenerateTPG(d, "tpg_big", memory.Config{Name: "b", Words: 8192, Bits: 32})
	if err != nil {
		t.Fatal(err)
	}
	as, err := d.Area(small.Name)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := d.Area(big.Name)
	if err != nil {
		t.Fatal(err)
	}
	if ab <= as {
		t.Fatalf("TPG area does not scale: %v vs %v", as, ab)
	}
}

// Every catalog algorithm's generated hardware finishes in exactly the
// cycle count the behavioural engine predicts (full conformance sweep).
func TestGateLevelCatalogConformance(t *testing.T) {
	cfg := memory.Config{Name: "r8x2", Words: 8, Bits: 2}
	for _, alg := range march.Catalog() {
		_, sim := buildSeqTPGBench(t, alg, cfg)
		cycles, fail := runGateLevel(t, sim, cfg, -1, 2000)
		if fail {
			t.Fatalf("%s: fault-free gate-level run failed", alg.Name)
		}
		if want := alg.Complexity() * cfg.Words; cycles != want {
			t.Fatalf("%s: gate level %d cycles, want %d", alg.Name, cycles, want)
		}
	}
}
