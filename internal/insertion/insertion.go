// Package insertion is STEAC's Test Insertion Tool (Fig. 1): it takes the
// original SOC netlist, the scheduling result, and the generated test
// blocks — wrappers, TAM multiplexer, test controller, memory BIST — and
// produces the DFT-ready netlist automatically.  The paper reports that on
// the DSC chip this step delivered a new testable SOC design "in minutes";
// here it is benchmarked by BenchmarkTestInsertionFlow.
package insertion

import (
	"fmt"
	"time"

	"steac/internal/controller"
	"steac/internal/netlist"
	"steac/internal/sched"
	"steac/internal/tam"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// Result is the outcome of test insertion.
type Result struct {
	Design *netlist.Design
	Top    *netlist.Module

	WBRCells        int
	WrapperGates    float64
	ControllerGates float64
	TAMGates        float64
	BISTGates       float64
	ChipLogicGates  float64
	// OverheadPct is (controller + TAM mux) area over the chip logic, the
	// paper's 0.3% accounting.
	OverheadPct float64
	Elapsed     time.Duration

	TAMSpec tam.Spec
	CtlSpec controller.Spec
	Plans   map[string]wrapper.Plan
}

// Insert builds the DFT-ready design.  The original design's top module
// must instantiate each wrapped core as instance "u_<core>" of module
// "core_<core>" (the convention the DSC model follows); those instances are
// replaced by their wrapped versions and the test infrastructure is added
// around them.  bistDesign, when non-nil, is merged in and its top module
// instantiated (the BRAINS integration of Fig. 4); it must be lint-clean,
// as BRAINS guarantees, since Insert lints only the modules it did not take
// from it.
//
// The result shares the modules of orig and bistDesign rather than copying
// them, and Insert never mutates either input: the same inputs may be
// inserted again, and Clone a shared module before changing it.
func Insert(orig *netlist.Design, cores []*testinfo.Core, s *sched.Schedule,
	res sched.Resources, bistDesign *netlist.Design, bistTop string) (*Result, error) {
	start := time.Now()
	if orig == nil || orig.TopModule() == nil {
		return nil, fmt.Errorf("insertion: original design has no top module")
	}

	d := netlist.NewDesign(orig.Name+"_dft", orig.Lib)
	if err := d.Merge(orig); err != nil {
		return nil, err
	}
	d.Top = ""

	result := &Result{Design: d, Plans: make(map[string]wrapper.Plan)}

	// Wrapper generation per core, at the TAM width the scheduler chose
	// (functional-only cores get a width-1 boundary wrapper).
	byName := make(map[string]*testinfo.Core)
	for _, c := range cores {
		byName[c.Name] = c
	}
	widths := make(map[string]int)
	ctlSpec := controller.Spec{Sessions: len(s.Sessions)}
	tamSpec := tam.Spec{Sessions: len(s.Sessions), Width: 1}
	active := make(map[string][]int)
	for si, sess := range s.Sessions {
		pinLo := 0
		routed := make(map[string]bool)
		for _, pl := range sess.Placements {
			if pl.Test.Core == nil {
				continue
			}
			name := pl.Test.Core.Name
			if !containsInt(active[name], si) {
				active[name] = append(active[name], si)
			}
			if pl.Test.Kind == sched.ScanKind {
				widths[name] = pl.Width
				tamSpec.Routes = append(tamSpec.Routes, tam.Route{
					Session: si, Core: name, Width: pl.Width, PinLo: pinLo,
				})
				routed[name] = true
				pinLo += pl.Width
			}
		}
		// An EXTEST session routes every wrapped core on one wire each.
		for _, pl := range sess.Placements {
			if pl.Test.Kind != sched.ExtestKind {
				continue
			}
			for _, c := range cores {
				if routed[c.Name] {
					continue
				}
				if !containsInt(active[c.Name], si) {
					active[c.Name] = append(active[c.Name], si)
				}
				w := widths[c.Name]
				if w < 1 {
					w = 1
				}
				tamSpec.Routes = append(tamSpec.Routes, tam.Route{
					Session: si, Core: c.Name, Width: w, PinLo: pinLo,
				})
				routed[c.Name] = true
				pinLo += w
			}
		}
		// Functional-only cores still get a width-1 TAM route so their
		// wrapper serial path is reachable (WIR programming, boundary
		// debug); it rides a free wire of their session.
		for _, pl := range sess.Placements {
			if pl.Test.Core == nil || pl.Test.Kind != sched.FuncKind {
				continue
			}
			name := pl.Test.Core.Name
			if routed[name] || pl.Test.Core.HasScan() {
				continue
			}
			tamSpec.Routes = append(tamSpec.Routes, tam.Route{
				Session: si, Core: name, Width: 1, PinLo: pinLo,
			})
			routed[name] = true
			pinLo++
		}
		if pinLo > tamSpec.Width {
			tamSpec.Width = pinLo
		}
	}

	for _, core := range cores {
		w := widths[core.Name]
		if w == 0 {
			w = 1
		}
		plan, err := wrapper.DesignChains(core, w, res.Partitioner)
		if err != nil {
			return nil, err
		}
		gen, err := wrapper.Generate(d, core, plan)
		if err != nil {
			return nil, err
		}
		result.Plans[core.Name] = plan
		result.WBRCells += gen.WBRCells
		result.WrapperGates += gen.WrapperGates
		ctlSpec.Cores = append(ctlSpec.Cores, controller.CoreCtl{
			Name:           core.Name,
			TestEnables:    len(core.TestEnables),
			ScanEnables:    len(core.ScanEnables),
			ActiveSessions: active[core.Name],
		})
	}

	// Test controller and TAM multiplexer.
	ctlName := "tacs"
	if _, err := controller.Generate(d, ctlName, ctlSpec); err != nil {
		return nil, err
	}
	tamName := "tammux"
	if _, err := tam.Generate(d, tamName, tamSpec); err != nil {
		return nil, err
	}
	result.CtlSpec, result.TAMSpec = ctlSpec, tamSpec

	// BIST subsystem (BRAINS output, Fig. 4).
	if bistDesign != nil {
		if err := d.Merge(bistDesign); err != nil {
			return nil, err
		}
		if d.Module(bistTop) == nil {
			return nil, fmt.Errorf("insertion: BIST top %q missing after merge", bistTop)
		}
	}

	top, err := buildTop(d, orig, byName, result, ctlName, tamName, bistTop, tamSpec)
	if err != nil {
		return nil, err
	}
	result.Top = top
	d.Top = top.Name

	// Lint what this insertion is answerable for: the original SOC's
	// modules and everything generated here, including the new top's
	// binding to the BIST top's ports.
	lint := make([]string, 0, len(d.Modules))
	for _, name := range d.ModuleNames() {
		if bistDesign == nil || bistDesign.Modules[name] == nil {
			lint = append(lint, name)
		}
	}
	if issues := d.LintModules(lint); len(issues) != 0 {
		return nil, fmt.Errorf("insertion: DFT netlist fails lint: %v (of %d)", issues[0], len(issues))
	}

	// Area accounting.
	if result.ControllerGates, err = d.Area(ctlName); err != nil {
		return nil, err
	}
	if result.TAMGates, err = d.Area(tamName); err != nil {
		return nil, err
	}
	if bistDesign != nil {
		// BIST logic only: the behavioural SRAM macros carry a bitcell
		// bookkeeping area that is not DFT logic.
		total, err := d.Area(bistTop)
		if err != nil {
			return nil, err
		}
		for _, name := range bistDesign.ModuleNames() {
			m := bistDesign.Modules[name]
			if m.Behavioral && m.Attrs["macro"] == "sram" {
				total -= m.AreaOverride
			}
		}
		result.BISTGates = total
	}
	// Chip logic area: the original design's behavioural blocks (cores,
	// glue, processor) excluding SRAM macros, which the paper's overhead
	// percentage also excludes.
	chip := 0.0
	for _, name := range orig.ModuleNames() {
		m := orig.Modules[name]
		if m.Behavioral && m.Attrs["macro"] != "sram" {
			chip += m.AreaOverride
		}
	}
	result.ChipLogicGates = chip
	if chip > 0 {
		result.OverheadPct = 100 * (result.ControllerGates + result.TAMGates) / chip
	}
	result.Elapsed = time.Since(start)
	return result, nil
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// buildTop clones the original top, swaps core instances for wrapped ones,
// and stitches controller, TAM mux and BIST.
func buildTop(d *netlist.Design, orig *netlist.Design, cores map[string]*testinfo.Core,
	result *Result, ctlName, tamName, bistTop string, tamSpec tam.Spec) (*netlist.Module, error) {
	ot := orig.TopModule()
	top := netlist.NewModule(ot.Name + "_dft")
	for _, p := range ot.Ports {
		top.MustPort(p.Name, p.Dir, p.Width)
	}
	// Chip-level test pins.
	for _, p := range []string{"tck", "trst", "tnext", "se_pin", "mbs", "mbr", "msi"} {
		top.MustPort(p, netlist.In, 1)
	}
	for _, p := range []string{"mso", "mbo", "mrd", "tso"} {
		top.MustPort(p, netlist.Out, 1)
	}
	top.MustPort("tin", netlist.In, tamSpec.Width)
	top.MustPort("tout", netlist.Out, tamSpec.Width)

	top.MustInstance("u_tie0", netlist.CellTie0, netlist.Pins{{"Z", "safe0"}})

	// Clone original instances, replacing cores with wrapped versions.
	for _, inst := range ot.Instances {
		coreName, isCore := coreOf(inst.Of)
		if !isCore {
			top.MustInstance(inst.Name, inst.Of, ot.PinsOf(inst))
			continue
		}
		core, ok := cores[coreName]
		if !ok {
			// A core module we were not asked to wrap: keep as is.
			top.MustInstance(inst.Name, inst.Of, ot.PinsOf(inst))
			continue
		}
		plan := result.Plans[coreName]
		// Test-side wiring.
		conns := netlist.Pins{
			{"wrck", "tck"}, {"shift", coreName + "_shift"}, {"update", "glb_update"},
			{"mode", coreName + "_mode"}, {"safe", "safe0"}, {"shiftwir", "glb_shiftwir"},
			{"updatewir", "glb_updatewir"}, {"wirso", coreName + "_wirso"},
		}
		for w := 0; w < plan.Width; w++ {
			conns = append(conns,
				[2]string{netlist.BitName("wsi", w, plan.Width), fmt.Sprintf("%s_wsi%d", coreName, w)},
				[2]string{netlist.BitName("wso", w, plan.Width), fmt.Sprintf("%s_wso%d", coreName, w)})
		}
		for i, se := range core.ScanEnables {
			conns = append(conns, [2]string{se, fmt.Sprintf("%s_se%d", coreName, i)})
		}
		for i, te := range core.TestEnables {
			conns = append(conns, [2]string{te, fmt.Sprintf("%s_te%d", coreName, i)})
		}
		// The original bindings follow, but for any pin the test side
		// now drives.
		testSide := make(map[string]bool, len(conns))
		for _, p := range conns {
			testSide[p[0]] = true
		}
		for _, c := range inst.Conns {
			if !testSide[c.Formal] {
				conns = append(conns, [2]string{c.Formal, ot.Nets[c.Net]})
			}
		}
		top.MustInstance(inst.Name, "wrap_"+coreName, conns)
	}

	// Controller.
	ctlConns := netlist.Pins{
		{"TCK", "tck"}, {"TRST", "trst"}, {"TNEXT", "tnext"}, {"SE", "se_pin"},
		{"SHIFTWIR", "glb_shiftwir"}, {"UPDATEWIR", "glb_updatewir"},
		{"UPDATE", "glb_update"}, {"TSO", "tso"},
	}
	ctl := d.Module(ctlName)
	sb := 0
	for _, p := range ctl.Ports {
		if p.Name == "SESS" {
			sb = p.Width
		}
	}
	for b := 0; b < sb; b++ {
		ctlConns = append(ctlConns, [2]string{netlist.BitName("SESS", b, sb), fmt.Sprintf("sess%d", b)})
	}
	for _, cc := range result.CtlSpec.Cores {
		ctlConns = append(ctlConns, [2]string{cc.Name + "_MODE", cc.Name + "_mode"},
			[2]string{cc.Name + "_SHIFT", cc.Name + "_shift"})
		for i := 0; i < cc.TestEnables; i++ {
			ctlConns = append(ctlConns, [2]string{netlist.BitName(cc.Name+"_TE", i, cc.TestEnables), fmt.Sprintf("%s_te%d", cc.Name, i)})
		}
		for i := 0; i < cc.ScanEnables; i++ {
			ctlConns = append(ctlConns, [2]string{netlist.BitName(cc.Name+"_SE", i, cc.ScanEnables), fmt.Sprintf("%s_se%d", cc.Name, i)})
		}
	}
	top.MustInstance("u_tacs", ctlName, ctlConns)

	// TAM multiplexer.
	tm := d.Module(tamName)
	var tamConns netlist.Pins
	for _, p := range tm.Ports {
		switch {
		case p.Name == "TIN":
			for b := 0; b < p.Width; b++ {
				tamConns = append(tamConns, [2]string{netlist.BitName("TIN", b, p.Width), netlist.BitName("tin", b, tamSpec.Width)})
			}
		case p.Name == "TOUT":
			for b := 0; b < p.Width; b++ {
				tamConns = append(tamConns, [2]string{netlist.BitName("TOUT", b, p.Width), netlist.BitName("tout", b, tamSpec.Width)})
			}
		case p.Name == "SESS":
			for b := 0; b < p.Width; b++ {
				tamConns = append(tamConns, [2]string{netlist.BitName("SESS", b, p.Width), fmt.Sprintf("sess%d", b)})
			}
		default:
			// <core>_WSI / <core>_WSO buses.
			for _, suffix := range []string{"_WSI", "_WSO"} {
				if len(p.Name) > len(suffix) && p.Name[len(p.Name)-len(suffix):] == suffix {
					coreName := p.Name[:len(p.Name)-len(suffix)]
					lower := "_wsi"
					if suffix == "_WSO" {
						lower = "_wso"
					}
					for b := 0; b < p.Width; b++ {
						tamConns = append(tamConns, [2]string{netlist.BitName(p.Name, b, p.Width), fmt.Sprintf("%s%s%d", coreName, lower, b)})
					}
				}
			}
		}
	}
	top.MustInstance("u_tammux", tamName, tamConns)

	// BIST.
	if bistTop != "" && d.Module(bistTop) != nil {
		top.MustInstance("u_membist", bistTop, netlist.Pins{
			{"MBS", "mbs"}, {"MBR", "mbr"}, {"MBC", "tck"}, {"MSI", "msi"},
			{"MSO", "mso"}, {"MBO", "mbo"}, {"MRD", "mrd"},
		})
	} else {
		// No BIST: tie the tester outputs quiet.
		top.MustInstance("u_tmso", netlist.CellTie0, netlist.Pins{{"Z", "mso"}})
		top.MustInstance("u_tmbo", netlist.CellTie0, netlist.Pins{{"Z", "mbo"}})
		top.MustInstance("u_tmrd", netlist.CellTie1, netlist.Pins{{"Z", "mrd"}})
	}
	if err := d.AddModule(top); err != nil {
		return nil, err
	}
	return top, nil
}

func coreOf(module string) (string, bool) {
	const pfx = "core_"
	if len(module) > len(pfx) && module[:len(pfx)] == pfx {
		return module[len(pfx):], true
	}
	return "", false
}
