package wrapper

import (
	"fmt"

	"steac/internal/netlist"
	"steac/internal/testinfo"
)

// WBRCellName is the shared wrapper-boundary-register cell module.
const WBRCellName = "wbr_cell"

// WBRCellGates is the NAND2-equivalent area of one WBR cell; the paper
// reports 26 gates and the generated module reproduces it exactly
// (capture mux 4 + shift flop 8 + update latch 6 + safe mux 4 + mode mux 4).
const WBRCellGates = 26

// GenerateWBRCell emits the shared WBR cell module into d (idempotent).
//
// Ports: CFI (functional input), CTI (serial test input), WRCK, SHIFT,
// UPDATE, MODE, SAFE; outputs CFO (functional output) and CTO (serial test
// output).  Behaviour: on WRCK, the shift flop captures CTI when SHIFT=1
// and CFI otherwise; the update latch loads the shift flop on UPDATE; in
// MODE=1 the cell drives CFO from the update latch (or the safe value when
// SAFE=1), otherwise CFO follows CFI transparently.
func GenerateWBRCell(d *netlist.Design) (*netlist.Module, error) {
	if m := d.Module(WBRCellName); m != nil {
		return m, nil
	}
	m := netlist.NewModule(WBRCellName)
	for _, p := range []string{"CFI", "CTI", "WRCK", "SHIFT", "UPDATE", "MODE", "SAFE"} {
		m.MustPort(p, netlist.In, 1)
	}
	m.MustPort("CFO", netlist.Out, 1)
	m.MustPort("CTO", netlist.Out, 1)

	m.MustInstance("capmux", netlist.CellMux2,
		map[string]string{"A": "CFI", "B": "CTI", "S": "SHIFT", "Z": "shd"})
	m.MustInstance("shft", netlist.CellDFF,
		map[string]string{"D": "shd", "CK": "WRCK", "Q": "CTO"})
	m.MustInstance("updl", netlist.CellLatchL,
		map[string]string{"D": "CTO", "EN": "UPDATE", "Q": "updq"})
	m.MustInstance("safe0", netlist.CellTie0, map[string]string{"Z": "sv"})
	m.MustInstance("safemux", netlist.CellMux2,
		map[string]string{"A": "updq", "B": "sv", "S": "SAFE", "Z": "sq"})
	m.MustInstance("modemux", netlist.CellMux2,
		map[string]string{"A": "CFI", "B": "sq", "S": "MODE", "Z": "CFO"})
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}

// WIRBits is the width of the wrapper instruction register.
const WIRBits = 3

// Wrapper instructions (WIR decode values).  The reset state of the WIR is
// all-zeros, so code 0 is the serial INTEST used by the scan sessions;
// BYPASS switches the serial path to the one-bit WBY register.
const (
	InstrIntestScan = iota
	InstrExtest
	InstrIntestFunc
	InstrBypass
)

// GenerateWIR emits the wrapper instruction register module: a 3-bit shift
// register (WSI side) with an update stage and a one-hot instruction decode.
func GenerateWIR(d *netlist.Design, name string) (*netlist.Module, error) {
	m := netlist.NewModule(name)
	for _, p := range []string{"WSI", "WRCK", "SHIFTWIR", "UPDATEWIR"} {
		m.MustPort(p, netlist.In, 1)
	}
	m.MustPort("WSO", netlist.Out, 1)
	m.MustPort("BYPASS", netlist.Out, 1)
	m.MustPort("EXTEST", netlist.Out, 1)
	m.MustPort("INTESTSCAN", netlist.Out, 1)
	m.MustPort("INTESTFUNC", netlist.Out, 1)

	prev := "WSI"
	var q []string
	for i := 0; i < WIRBits; i++ {
		sq := fmt.Sprintf("sq%d", i)
		en := fmt.Sprintf("sd%d", i)
		m.AddNet(sq)
		m.MustInstance(fmt.Sprintf("smux%d", i), netlist.CellMux2,
			map[string]string{"A": sq, "B": prev, "S": "SHIFTWIR", "Z": en})
		m.MustInstance(fmt.Sprintf("sff%d", i), netlist.CellDFF,
			map[string]string{"D": en, "CK": "WRCK", "Q": sq})
		uq := fmt.Sprintf("uq%d", i)
		m.AddNet(uq)
		m.MustInstance(fmt.Sprintf("ul%d", i), netlist.CellLatchL,
			map[string]string{"D": sq, "EN": "UPDATEWIR", "Q": uq})
		q = append(q, uq)
		prev = sq
	}
	m.MustInstance("wsobuf", netlist.CellBuf, map[string]string{"A": prev, "Z": "WSO"})
	if _, err := netlist.AddDecoder(m, "idec", q[:2], "",
		[]string{"INTESTSCAN", "EXTEST", "INTESTFUNC", "BYPASS"}); err != nil {
		return nil, err
	}
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}

// CoreModuleName returns the conventional module name for a wrapped core.
func CoreModuleName(core string) string { return "core_" + core }

// CoreAreaGates estimates the logic area of a core from its test
// information (a synthesis-free stand-in: scanned state costs a scan flop,
// IO costs drivers, plus combinational logic proportional to state).  The
// DSC glue/processor sizes of the dsc scenario are calibrated so the whole chip
// lands near the paper's 0.3% controller+TAM overhead.
func CoreAreaGates(core *testinfo.Core) float64 {
	scan := float64(core.TotalScanBits())
	io := float64(core.PIs + core.POs)
	return scan*10 + scan*14 + io*3 + 200
}

// GenerateCoreModule declares the behavioural core module with the port
// convention the wrapper expects: pi/po buses, si<i>/so<i> per chain, and
// the core's control pins.  Skipped if the design already has the module
// (tests substitute a structural core).
func GenerateCoreModule(d *netlist.Design, core *testinfo.Core) (*netlist.Module, error) {
	name := CoreModuleName(core.Name)
	if m := d.Module(name); m != nil {
		return m, nil
	}
	m := netlist.NewModule(name)
	m.Behavioral = true
	m.AreaOverride = CoreAreaGates(core)
	m.Attrs["ip"] = core.Name
	if core.PIs > 0 {
		m.MustPort("pi", netlist.In, core.PIs)
	}
	if core.POs > 0 {
		m.MustPort("po", netlist.Out, core.POs)
	}
	for i := range core.ScanChains {
		m.MustPort(fmt.Sprintf("si%d", i), netlist.In, 1)
		m.MustPort(fmt.Sprintf("so%d", i), netlist.Out, 1)
	}
	for _, p := range core.Clocks {
		m.MustPort(p, netlist.In, 1)
	}
	for _, p := range core.Resets {
		m.MustPort(p, netlist.In, 1)
	}
	for _, p := range core.ScanEnables {
		m.MustPort(p, netlist.In, 1)
	}
	for _, p := range core.TestEnables {
		m.MustPort(p, netlist.In, 1)
	}
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Generated summarizes a generated wrapper.
type Generated struct {
	Module *netlist.Module
	// WBRCells is the number of boundary cells instantiated.
	WBRCells int
	// WrapperGates is the wrapper-only area (boundary cells + WIR + WBY +
	// glue), excluding the core itself.
	WrapperGates float64
}

// Generate builds the wrapper module "wrap_<core>" around the core
// according to the chain plan.  Wrapper ports:
//
//	pi[PIs], po[POs]          chip-side functional pins
//	wrck, shift, update, mode, safe, shiftwir, updatewir
//	wsi[width], wso[width]    TAM terminals
//	plus the core's control pins, passed through.
//
// Wrapper chain i runs wsi[i] → input cells → core chain segments → output
// cells → wso[i].  The WIR rides on wsi[0]'s wire (selected by shiftwir).
func Generate(d *netlist.Design, core *testinfo.Core, plan Plan) (*Generated, error) {
	if plan.Core != core.Name {
		return nil, fmt.Errorf("wrapper: plan for %q used on core %q", plan.Core, core.Name)
	}
	if plan.Soft {
		return nil, fmt.Errorf("wrapper: structural generation needs the physical chains; design with a hard-core plan (soft plans are a scheduling view)")
	}
	if _, err := GenerateWBRCell(d); err != nil {
		return nil, err
	}
	wirName := "wir_" + core.Name
	if _, err := GenerateWIR(d, wirName); err != nil {
		return nil, err
	}
	if _, err := GenerateCoreModule(d, core); err != nil {
		return nil, err
	}

	w := netlist.NewModule("wrap_" + core.Name)
	if core.PIs > 0 {
		w.MustPort("pi", netlist.In, core.PIs)
	}
	if core.POs > 0 {
		w.MustPort("po", netlist.Out, core.POs)
	}
	for _, p := range []string{"wrck", "shift", "update", "mode", "safe", "shiftwir", "updatewir"} {
		w.MustPort(p, netlist.In, 1)
	}
	w.MustPort("wsi", netlist.In, plan.Width)
	w.MustPort("wso", netlist.Out, plan.Width)
	w.MustPort("wirso", netlist.Out, 1)
	passthrough := make(map[string]string)
	for _, pins := range [][]string{core.Clocks, core.Resets, core.ScanEnables, core.TestEnables} {
		for _, p := range pins {
			w.MustPort(p, netlist.In, 1)
			passthrough[p] = p
		}
	}

	// WIR on its own serial path.
	w.MustInstance("u_wir", wirName, map[string]string{
		"WSI": netlist.BitName("wsi", 0, plan.Width), "WRCK": "wrck",
		"SHIFTWIR": "shiftwir", "UPDATEWIR": "updatewir", "WSO": "wirso",
		"BYPASS": "i_byp", "EXTEST": "i_ext", "INTESTSCAN": "i_ints", "INTESTFUNC": "i_intf",
	})

	// Core instance connections accumulate as we wire boundary cells.
	coreConns := make(map[string]string)
	for k, v := range passthrough {
		coreConns[k] = v
	}

	cellCount := 0
	newCell := func(kind string, idx int, cfi, cfo, cti string) string {
		cto := fmt.Sprintf("%s%d_cto", kind, idx)
		w.AddNet(cto)
		w.MustInstance(fmt.Sprintf("u_%s%d", kind, idx), WBRCellName, map[string]string{
			"CFI": cfi, "CFO": cfo, "CTI": cti, "CTO": cto,
			"WRCK": "wrck", "SHIFT": "shift", "UPDATE": "update",
			"MODE": "mode", "SAFE": "safe",
		})
		cellCount++
		return cto
	}

	nextIn, nextOut := 0, 0
	for ci, chain := range plan.Chains {
		cur := netlist.BitName("wsi", ci, plan.Width)
		for k := 0; k < chain.InCells; k++ {
			i := nextIn
			nextIn++
			cfi := netlist.BitName("pi", i, core.PIs)
			cfo := fmt.Sprintf("cpi%d", i)
			w.AddNet(cfo)
			coreConns[netlist.BitName("pi", i, core.PIs)] = cfo
			cur = newCell("ib", i, cfi, cfo, cur)
		}
		for _, si := range chain.CoreChains {
			sin := fmt.Sprintf("csi%d", si)
			sout := fmt.Sprintf("cso%d", si)
			w.AddNet(sin)
			w.AddNet(sout)
			// The serial path enters the core chain directly.
			w.MustInstance(fmt.Sprintf("u_sib%d", si), netlist.CellBuf,
				map[string]string{"A": cur, "Z": sin})
			coreConns[fmt.Sprintf("si%d", si)] = sin
			coreConns[fmt.Sprintf("so%d", si)] = sout
			cur = sout
		}
		for k := 0; k < chain.OutCells; k++ {
			o := nextOut
			nextOut++
			cfi := fmt.Sprintf("cpo%d", o)
			w.AddNet(cfi)
			coreConns[netlist.BitName("po", o, core.POs)] = cfi
			cur = newCell("ob", o, cfi, netlist.BitName("po", o, core.POs), cur)
		}
		if ci == 0 {
			// WBY: the mandatory one-bit bypass register rides wrapper
			// chain 0 and takes over when the WIR holds BYPASS.
			w.MustInstance("u_wby", netlist.CellDFF, map[string]string{
				"D": netlist.BitName("wsi", 0, plan.Width), "CK": "wrck", "Q": "wby_q"})
			w.MustInstance("u_bymux", netlist.CellMux2, map[string]string{
				"A": cur, "B": "wby_q", "S": "i_byp",
				"Z": netlist.BitName("wso", 0, plan.Width)})
			continue
		}
		w.MustInstance(fmt.Sprintf("u_wsob%d", ci), netlist.CellBuf,
			map[string]string{"A": cur, "Z": netlist.BitName("wso", ci, plan.Width)})
	}
	if nextIn != core.PIs || nextOut != core.POs {
		return nil, fmt.Errorf("wrapper: plan covers %d/%d inputs and %d/%d outputs",
			nextIn, core.PIs, nextOut, core.POs)
	}
	w.MustInstance("u_core", CoreModuleName(core.Name), coreConns)
	if err := d.AddModule(w); err != nil {
		return nil, err
	}

	total, err := d.Area(w.Name)
	if err != nil {
		return nil, err
	}
	coreArea, err := d.Area(CoreModuleName(core.Name))
	if err != nil {
		return nil, err
	}
	return &Generated{Module: w, WBRCells: cellCount, WrapperGates: total - coreArea}, nil
}
