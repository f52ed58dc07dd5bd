package pattern

import (
	"fmt"

	"steac/internal/netlist"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// BuildStructuralCore emits a gate-level implementation of the core's
// synthetic logic into d, under the module name wrapper.Generate expects
// (wrapper skips its behavioural stand-in when the module already exists).
// The module is bit-exact to CoreModel.Capture: every scan cell is an SDFF
// (scanned with the core's first scan enable, clocked by its first clock),
// chain cci's cell k holds state bit chainOffset(cci)+k — the same
// concatenation order the ATPG and the chip model use — and the capture
// logic realizes the TapSpec XOR/AND structure per bit.  Port convention
// matches GenerateCoreModule: pi/po buses, si<i>/so<i> per chain, then the
// core's clock, reset, scan-enable and test-enable pins.
//
// With this module substituted, a flattened wrapper becomes a true
// gate-level reference for the translated patterns: zero mismatches against
// the ATPG expectations proves the netlist, and stuck-at faults injected
// into it grade the pattern set.
func BuildStructuralCore(d *netlist.Design, core *testinfo.Core) (*netlist.Module, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	if core.TotalScanBits() == 0 {
		return nil, fmt.Errorf("pattern: structural core %s has no scan state", core.Name)
	}
	if len(core.ScanEnables) == 0 {
		return nil, fmt.Errorf("pattern: structural core %s has no scan enable", core.Name)
	}
	name := wrapper.CoreModuleName(core.Name)
	if d.Module(name) != nil {
		return nil, fmt.Errorf("pattern: design already has module %s", name)
	}
	model := NewCoreModel(core)
	ck, se := core.Clocks[0], core.ScanEnables[0]

	m := netlist.NewModule(name)
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
	for _, group := range [][]string{core.Clocks, core.Resets, core.ScanEnables, core.TestEnables} {
		for _, p := range group {
			m.MustPort(p, netlist.In, 1)
		}
	}

	// Q net of every scan cell, in state-vector order.  The last cell of a
	// chain drives the chain's scan-out port directly.
	n := model.StateBits()
	qNet := make([]string, n)
	idx := 0
	for ci, ch := range core.ScanChains {
		for k := 0; k < ch.Length; k++ {
			if k == ch.Length-1 {
				qNet[idx] = fmt.Sprintf("so%d", ci)
			} else {
				qNet[idx] = fmt.Sprintf("sq%d", idx)
			}
			idx++
		}
	}
	piNet := func(i int) string { return netlist.BitName("pi", i, core.PIs) }

	// Scan cells with their next-state capture logic.
	idx = 0
	for ci, ch := range core.ScanChains {
		prev := fmt.Sprintf("si%d", ci)
		for k := 0; k < ch.Length; k++ {
			i := idx
			idx++
			sp := model.NextSpec(i)
			s := qNet[sp.StateTap]
			var dNet string
			switch {
			case sp.PITap >= 0:
				dNet = fmt.Sprintf("nd%d", i)
				cell := netlist.CellXor2
				if sp.Invert {
					cell = netlist.CellXnor2
				}
				m.MustInstance(fmt.Sprintf("u_nx%d", i), cell,
					netlist.Pins{{"A", s}, {"B", piNet(sp.PITap)}, {"Z", dNet}})
			case sp.Invert:
				dNet = fmt.Sprintf("nd%d", i)
				m.MustInstance(fmt.Sprintf("u_nx%d", i), netlist.CellInv,
					netlist.Pins{{"A", s}, {"Z", dNet}})
			default:
				dNet = s
			}
			m.MustInstance(fmt.Sprintf("u_sc%d", i), netlist.CellSDFF, netlist.Pins{
				{"D", dNet}, {"SI", prev}, {"SE", se}, {"CK", ck}, {"Q", qNet[i]}})
			prev = qNet[i]
		}
	}

	// Primary-output cones.
	for j := 0; j < core.POs; j++ {
		sp := model.POSpec(j)
		poN := netlist.BitName("po", j, core.POs)
		s := qNet[sp.StateTap]
		if sp.PITap < 0 {
			cell := netlist.CellBuf
			if sp.Invert {
				cell = netlist.CellInv
			}
			m.MustInstance(fmt.Sprintf("u_po%d", j), cell, netlist.Pins{{"A", s}, {"Z", poN}})
			continue
		}
		p := piNet(sp.PITap)
		aNet := fmt.Sprintf("pa%d", j)
		m.MustInstance(fmt.Sprintf("u_pa%d", j), netlist.CellAnd2,
			netlist.Pins{{"A", s}, {"B", p}, {"Z", aNet}})
		cell := netlist.CellXor2
		if sp.Invert {
			cell = netlist.CellXnor2
		}
		if sp.PIXor {
			tNet := fmt.Sprintf("pt%d", j)
			m.MustInstance(fmt.Sprintf("u_px%d", j), cell,
				netlist.Pins{{"A", s}, {"B", aNet}, {"Z", tNet}})
			m.MustInstance(fmt.Sprintf("u_po%d", j), netlist.CellXor2,
				netlist.Pins{{"A", tNet}, {"B", p}, {"Z", poN}})
		} else {
			m.MustInstance(fmt.Sprintf("u_po%d", j), cell,
				netlist.Pins{{"A", s}, {"B", aNet}, {"Z", poN}})
		}
	}

	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}
