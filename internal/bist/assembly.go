package bist

import (
	"fmt"
	"strconv"

	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
)

// GroupSpec describes one sequencer group for netlist generation (the
// structural mirror of Group, without live RAM instances).
type GroupSpec struct {
	Name string
	Alg  march.Algorithm
	Mems []memory.Config
	// Backgrounds lists the data backgrounds the group is tested with
	// (empty means one solid-background pass).
	Backgrounds []uint64
	// PauseBefore / PauseCycles configure retention-test pauses.
	PauseBefore []int
	PauseCycles int
	// TestPortB appends the port-B verification pass for two-port macros.
	TestPortB bool
}

// AreaReport itemizes the NAND2-equivalent cost of a generated BIST design.
type AreaReport struct {
	Controller float64
	Sequencers float64
	TPGs       float64
}

// Total returns the total BIST logic area.
func (a AreaReport) Total() float64 { return a.Controller + a.Sequencers + a.TPGs }

// GenerateRAMModule declares a behavioural SRAM macro module with the port
// list the TPG drives.  Macro area is not NAND2 logic; the module carries a
// conventional bitcell-equivalent figure (bits/4) that reports exclude from
// logic-overhead percentages.
func GenerateRAMModule(d *netlist.Design, cfg memory.Config) (*netlist.Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := netlist.NewModule("ram_" + cfg.Name)
	m.Behavioral = true
	m.AreaOverride = float64(cfg.BitCount()) / 4
	m.Attrs["macro"] = "sram"
	m.Attrs["geometry"] = cfg.String()
	m.MustPort("CK", netlist.In, 1)
	m.MustPort("ADDR", netlist.In, cfg.AddrBits())
	m.MustPort("D", netlist.In, cfg.Bits)
	m.MustPort("WE", netlist.In, 1)
	m.MustPort("Q", netlist.Out, cfg.Bits)
	if cfg.Kind == memory.TwoPort {
		m.MustPort("ADDRB", netlist.In, cfg.AddrBits())
		m.MustPort("QB", netlist.Out, cfg.Bits)
	}
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}

// GenerateBIST assembles the full Fig. 2 BIST subsystem into design d: the
// shared controller, one sequencer per group, one TPG per memory, and the
// behavioural RAM macros, all stitched in a module named topName.  It
// returns the top module and the area report.
//
// Each distinct block body is generated, and its area computed, once: the
// first group of an algorithm (name and elements, all GenerateSequencer
// reads) and the first memory of a shape (a memory.Config but its name,
// all GenerateTPG reads) get fresh sequencer and TPG modules, and every
// later one gets an alias (netlist.Module.Alias) of that body under its
// own module name.  The emitted Verilog is the same as generating every
// block afresh.
func GenerateBIST(d *netlist.Design, topName string, groups []GroupSpec) (*netlist.Module, AreaReport, error) {
	var report AreaReport
	if len(groups) == 0 {
		return nil, report, fmt.Errorf("bist: no groups")
	}
	top := netlist.NewModule(topName)
	for _, p := range []string{PinMBS, PinMBR, PinMBC, PinMSI} {
		top.MustPort(p, netlist.In, 1)
	}
	// MBG selects the data background (0 solid, 1 checkerboard); MPB
	// selects the compared read port of two-port macros.  The tester
	// re-runs the BIST per background / per port.
	top.MustPort("MBG", netlist.In, 1)
	top.MustPort("MPB", netlist.In, 1)
	for _, p := range []string{PinMSO, PinMBO, PinMRD} {
		top.MustPort(p, netlist.Out, 1)
	}

	ctlName := topName + "_ctl"
	if _, err := GenerateController(d, ctlName, len(groups)); err != nil {
		return nil, report, err
	}
	a, err := d.Area(ctlName)
	if err != nil {
		return nil, report, err
	}
	report.Controller = a

	ctlConns := netlist.Pins{
		{PinMBS, PinMBS}, {PinMBR, PinMBR}, {PinMBC, PinMBC}, {PinMSI, PinMSI},
		{PinMSO, PinMSO}, {PinMBO, PinMBO}, {PinMRD, PinMRD},
	}
	for gi := range groups {
		gs := strconv.Itoa(gi)
		ctlConns = append(ctlConns,
			[2]string{netlist.BitName("GDONE", gi, len(groups)), "gdone" + gs},
			[2]string{netlist.BitName("GFAIL", gi, len(groups)), "gfail" + gs},
			[2]string{netlist.BitName("GO", gi, len(groups)), "go" + gs})
	}
	top.MustInstance("u_ctl", ctlName, ctlConns)

	seqs := make(map[string]block)
	tpgs := make(map[memory.Config]block)
	for gi, g := range groups {
		if len(g.Mems) == 0 {
			return nil, report, fmt.Errorf("bist: group %s has no memories", g.Name)
		}
		seqName := topName + "_seq_" + g.Name
		sa, err := generateOnce(d, seqs, g.Alg.Name+g.Alg.String(), seqName,
			func() (*netlist.Module, error) { return GenerateSequencer(d, seqName, g.Alg) })
		if err != nil {
			return nil, report, err
		}
		report.Sequencers += sa

		gs := strconv.Itoa(gi)
		pfx := "g" + gs + "_"
		top.MustInstance("u_seq"+g.Name, seqName, netlist.Pins{
			{"CK", PinMBC}, {"RST", PinMBR}, {"EN", "go" + gs},
			{"ELEMDONE", pfx + "elemdone"},
			{"CMDR", pfx + "cmdr"}, {"CMDD", pfx + "cmdd"}, {"DIR", pfx + "dir"},
			{"ADV", pfx + "adv"}, {"DONE", "gdone" + gs}, {"RUN", pfx + "run"},
		})
		// TPG enable = GO AND RUN (no spurious access after the last element).
		top.MustInstance(pfx+"engate", netlist.CellAnd2,
			netlist.Pins{{"A", "go" + gs}, {"B", pfx + "run"}, {"Z", pfx + "en"}})

		var elemDones, fails []string
		for mi, cfg := range g.Mems {
			if _, err := GenerateRAMModule(d, cfg); err != nil {
				return nil, report, err
			}
			tpgName := topName + "_tpg_" + cfg.Name
			shape := cfg
			shape.Name = ""
			ta, err := generateOnce(d, tpgs, shape, tpgName,
				func() (*netlist.Module, error) { return GenerateTPG(d, tpgName, cfg) })
			if err != nil {
				return nil, report, err
			}
			report.TPGs += ta

			mp := pfx + "m" + strconv.Itoa(mi) + "_"
			tpgConns := netlist.Pins{
				{"CK", PinMBC}, {"RST", PinMBR}, {"EN", pfx + "en"}, {"ADV", pfx + "adv"},
				{"CMDR", pfx + "cmdr"}, {"CMDD", pfx + "cmdd"}, {"DIR", pfx + "dir"},
				{"BGSEL", "MBG"},
				{"WE", mp + "we"}, {"ELEMDONE", mp + "elemdone"}, {"FAIL", mp + "fail"},
			}
			ramConns := netlist.Pins{{"CK", PinMBC}, {"WE", mp + "we"}}
			for b := 0; b < cfg.AddrBits(); b++ {
				n := mp + "addr" + strconv.Itoa(b)
				tpgConns = append(tpgConns, [2]string{netlist.BitName("ADDR", b, cfg.AddrBits()), n})
				ramConns = append(ramConns, [2]string{netlist.BitName("ADDR", b, cfg.AddrBits()), n})
				if cfg.Kind == memory.TwoPort {
					ramConns = append(ramConns, [2]string{netlist.BitName("ADDRB", b, cfg.AddrBits()), n})
				}
			}
			for b := 0; b < cfg.Bits; b++ {
				bs := strconv.Itoa(b)
				dn, qn := mp+"d"+bs, mp+"q"+bs
				d, q := netlist.BitName("D", b, cfg.Bits), netlist.BitName("Q", b, cfg.Bits)
				tpgConns = append(tpgConns, [2]string{d, dn}, [2]string{q, qn})
				ramConns = append(ramConns, [2]string{d, dn}, [2]string{q, qn})
				if cfg.Kind == memory.TwoPort {
					qb := mp + "qb" + bs
					tpgConns = append(tpgConns, [2]string{netlist.BitName("QB", b, cfg.Bits), qb})
					ramConns = append(ramConns, [2]string{netlist.BitName("QB", b, cfg.Bits), qb})
				}
			}
			if cfg.Kind == memory.TwoPort {
				tpgConns = append(tpgConns, [2]string{"PBSEL", "MPB"})
			}
			top.MustInstance("u_tpg_"+cfg.Name, tpgName, tpgConns)
			top.MustInstance("u_ram_"+cfg.Name, "ram_"+cfg.Name, ramConns)
			elemDones = append(elemDones, mp+"elemdone")
			fails = append(fails, mp+"fail")
		}
		if _, err := netlist.AddAndTree(top, pfx+"eda", elemDones, pfx+"elemdone"); err != nil {
			return nil, report, err
		}
		if _, err := netlist.AddOrTree(top, pfx+"flo", fails, "gfail"+gs); err != nil {
			return nil, report, err
		}
	}
	if err := d.AddModule(top); err != nil {
		return nil, report, err
	}
	return top, report, nil
}

// block is a generated module body and its area, shared by every module
// of the same key.
type block struct {
	m    *netlist.Module
	area float64
}

// generateOnce adds module name to d with the body of key's block:
// generated by gen (which adds it to d) and measured the first time key is
// seen, an alias of that body every later time.  It returns the block's
// area.
func generateOnce[K comparable](d *netlist.Design, blocks map[K]block, key K, name string, gen func() (*netlist.Module, error)) (float64, error) {
	if b, ok := blocks[key]; ok {
		if err := d.AddModule(b.m.Alias(name)); err != nil {
			return 0, err
		}
		return b.area, nil
	}
	m, err := gen()
	if err != nil {
		return 0, err
	}
	a, err := d.Area(name)
	if err != nil {
		return 0, err
	}
	blocks[key] = block{m, a}
	return a, nil
}
