// Package controller generates the chip-level test controller (the "TACS
// Generator" of Fig. 1): a session sequencer that decodes the active test
// session, re-multiplexes the shared test-control signals onto the active
// cores (one chip SE pin fans out to every core's scan enables, the cores'
// test-enable lines are driven from the decoded session state), and feeds
// the session select to the TAM multiplexer.  On the DSC chip the paper
// reports the controller at about 371 NAND2-equivalent gates.
package controller

import (
	"fmt"

	"steac/internal/netlist"
)

// CoreCtl describes one core's control needs.
type CoreCtl struct {
	Name string
	// TestEnables and ScanEnables are the core-side control pin counts
	// (Table 1: USB has 6 TEs and 1 SE, the TV encoder 1 and 1).
	TestEnables int
	ScanEnables int
	// ActiveSessions lists the sessions in which the core is tested.
	ActiveSessions []int
}

// Spec is the controller configuration derived from the scheduling result.
type Spec struct {
	Sessions int
	Cores    []CoreCtl
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Sessions < 1 {
		return fmt.Errorf("controller: %d sessions", s.Sessions)
	}
	seen := make(map[string]bool)
	for _, c := range s.Cores {
		if seen[c.Name] {
			return fmt.Errorf("controller: duplicate core %s", c.Name)
		}
		seen[c.Name] = true
		for _, a := range c.ActiveSessions {
			if a < 0 || a >= s.Sessions {
				return fmt.Errorf("controller: core %s active in session %d of %d",
					c.Name, a, s.Sessions)
			}
		}
	}
	return nil
}

func sessBits(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// Generate builds the controller module.
//
// Ports: TCK (test clock), TRST (reset), TNEXT (session advance strobe from
// the tester), SE (chip-level scan enable); outputs SESS[bits] to the TAM
// multiplexer, the global wrapper-instruction strobes SHIFTWIR/UPDATEWIR
// (pulsed by the WIR-load sequencer on every session entry), UPDATE (the
// boundary-register update strobe derived from the falling edge of SE), TSO
// (serial status out: per-session done flags selected by the session
// counter) and, per core, <core>_TE[i], <core>_SE[j], <core>_SHIFT and
// <core>_MODE.  Each core's control outputs are registered so session
// transitions are glitch-free.
func Generate(d *netlist.Design, name string, spec Spec) (*netlist.Module, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := netlist.NewModule(name)
	for _, p := range []string{"TCK", "TRST", "TNEXT", "SE"} {
		m.MustPort(p, netlist.In, 1)
	}
	sb := sessBits(spec.Sessions)
	m.MustPort("SESS", netlist.Out, sb)
	for _, p := range []string{"SHIFTWIR", "UPDATEWIR", "UPDATE", "TSO"} {
		m.MustPort(p, netlist.Out, 1)
	}

	// Session counter.
	cnt := make([]string, sb)
	for i := range cnt {
		cnt[i] = netlist.BitName("SESS", i, sb)
	}
	if err := addCounter(m, "sc", "TCK", "TRST", "TNEXT", cnt); err != nil {
		return nil, err
	}
	hot := make([]string, spec.Sessions)
	for i := range hot {
		hot[i] = fmt.Sprintf("hot%d", i)
		m.AddNet(hot[i])
	}
	if _, err := netlist.AddDecoder(m, "sdec", cnt, "", hot); err != nil {
		return nil, err
	}

	// Boundary update strobe: pulses right after SE falls (shift phase
	// over), which is when the wrapper update latches take the stimulus.
	m.MustInstance("seq", netlist.CellDFF, netlist.Pins{{"D", "SE"}, {"CK", "TCK"}, {"Q", "se_q"}})
	m.MustInstance("sei", netlist.CellInv, netlist.Pins{{"A", "SE"}, {"Z", "se_n"}})
	m.MustInstance("upd", netlist.CellAnd2, netlist.Pins{{"A", "se_q"}, {"B", "se_n"}, {"Z", "UPDATE"}})

	// WIR-load sequencer: a session entry (registered TNEXT) raises a busy
	// flag for four TCKs during which SHIFTWIR streams the instruction,
	// closing with an UPDATEWIR pulse.
	m.MustInstance("tnq", netlist.CellDFF, netlist.Pins{{"D", "TNEXT"}, {"CK", "TCK"}, {"Q", "tn_q"}})
	wcnt := []string{"wb0", "wb1"}
	for _, n := range wcnt {
		m.AddNet(n)
	}
	m.MustInstance("wdone0", netlist.CellAnd2, netlist.Pins{{"A", "wb0"}, {"B", "wb1"}, {"Z", "wir_last"}})
	m.MustInstance("wbor", netlist.CellOr2, netlist.Pins{{"A", "tn_q"}, {"B", "wir_busyq"}, {"Z", "wb_set"}})
	m.MustInstance("wlinv", netlist.CellInv, netlist.Pins{{"A", "wir_last"}, {"Z", "wir_nlast"}})
	m.MustInstance("wband", netlist.CellAnd2, netlist.Pins{{"A", "wb_set"}, {"B", "wir_nlast"}, {"Z", "wb_d0"}})
	m.MustInstance("wbrst", netlist.CellInv, netlist.Pins{{"A", "TRST"}, {"Z", "wb_nrst"}})
	m.MustInstance("wband2", netlist.CellAnd2, netlist.Pins{{"A", "wb_d0"}, {"B", "wb_nrst"}, {"Z", "wb_d"}})
	m.MustInstance("wbff", netlist.CellDFF, netlist.Pins{{"D", "wb_d"}, {"CK", "TCK"}, {"Q", "wir_busyq"}})
	if err := addCounter(m, "wc", "TCK", "TRST", "wir_busyq", wcnt); err != nil {
		return nil, err
	}
	m.MustInstance("swbuf", netlist.CellBuf, netlist.Pins{{"A", "wir_busyq"}, {"Z", "SHIFTWIR"}})
	m.MustInstance("uwand", netlist.CellAnd2, netlist.Pins{{"A", "wir_busyq"}, {"B", "wir_last"}, {"Z", "UPDATEWIR"}})

	// Per-session done flags, serially observable on TSO.
	doneFlags := make([]string, spec.Sessions)
	for s := 0; s < spec.Sessions; s++ {
		fl := fmt.Sprintf("done%d", s)
		doneFlags[s] = fl
		m.AddNet(fl)
		cap := fmt.Sprintf("dcap%d", s)
		m.MustInstance(fmt.Sprintf("dc%d", s), netlist.CellAnd2,
			netlist.Pins{{"A", "TNEXT"}, {"B", hot[s]}, {"Z", cap}})
		m.MustInstance(fmt.Sprintf("do%d", s), netlist.CellOr2,
			netlist.Pins{{"A", cap}, {"B", fl}, {"Z", fmt.Sprintf("dn%d", s)}})
		m.MustInstance(fmt.Sprintf("dr%d", s), netlist.CellAnd2,
			netlist.Pins{{"A", fmt.Sprintf("dn%d", s)}, {"B", "wb_nrst"}, {"Z", fmt.Sprintf("dd%d", s)}})
		m.MustInstance(fmt.Sprintf("df%d", s), netlist.CellDFF,
			netlist.Pins{{"D", fmt.Sprintf("dd%d", s)}, {"CK", "TCK"}, {"Q", fl}})
	}
	if _, err := netlist.AddMuxTree(m, "tso", doneFlags, cnt[:sessBits(spec.Sessions)], "TSO"); err != nil {
		return nil, err
	}

	for _, core := range spec.Cores {
		m.MustPort(core.Name+"_MODE", netlist.Out, 1)
		m.MustPort(core.Name+"_SHIFT", netlist.Out, 1)
		if core.TestEnables > 0 {
			m.MustPort(core.Name+"_TE", netlist.Out, core.TestEnables)
		}
		if core.ScanEnables > 0 {
			m.MustPort(core.Name+"_SE", netlist.Out, core.ScanEnables)
		}
		// active = OR of the core's sessions, registered on TCK.
		act := core.Name + "_actd"
		m.AddNet(act)
		if len(core.ActiveSessions) == 0 {
			m.MustInstance(core.Name+"_tie", netlist.CellTie0, netlist.Pins{{"Z", act}})
		} else {
			terms := make([]string, len(core.ActiveSessions))
			for i, s := range core.ActiveSessions {
				terms[i] = hot[s]
			}
			if _, err := netlist.AddOrTree(m, core.Name+"_act", terms, act); err != nil {
				return nil, err
			}
		}
		reg := core.Name + "_actq"
		m.AddNet(reg)
		m.MustInstance(core.Name+"_aff", netlist.CellDFF,
			netlist.Pins{{"D", act}, {"CK", "TCK"}, {"Q", reg}})
		m.MustInstance(core.Name+"_mbuf", netlist.CellBuf,
			netlist.Pins{{"A", reg}, {"Z", core.Name + "_MODE"}})
		m.MustInstance(core.Name+"_shg", netlist.CellAnd2,
			netlist.Pins{{"A", "SE"}, {"B", reg}, {"Z", core.Name + "_SHIFT"}})
		for i := 0; i < core.TestEnables; i++ {
			m.MustInstance(fmt.Sprintf("%s_teb%d", core.Name, i), netlist.CellBuf,
				netlist.Pins{{"A", reg}, {"Z", netlist.BitName(core.Name+"_TE", i, core.TestEnables)}})
		}
		for i := 0; i < core.ScanEnables; i++ {
			m.MustInstance(fmt.Sprintf("%s_seg%d", core.Name, i), netlist.CellAnd2,
				netlist.Pins{{"A", "SE"}, {"B", reg},
					{"Z", netlist.BitName(core.Name+"_SE", i, core.ScanEnables)}})
		}
	}
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}

// addCounter is a synchronous up counter (enable TNEXT, reset TRST); it
// mirrors the BIST controller's counter but lives here to keep the packages
// independent.
func addCounter(m *netlist.Module, name, ck, rst, en string, q []string) error {
	carry := en
	nrst := name + "_nrst"
	m.AddNet(nrst)
	if _, err := m.AddInstance(name+"_rinv", netlist.CellInv,
		netlist.Pins{{"A", rst}, {"Z", nrst}}); err != nil {
		return err
	}
	for i := range q {
		sum := fmt.Sprintf("%s_s%d", name, i)
		dnet := fmt.Sprintf("%s_d%d", name, i)
		if _, err := m.AddInstance(fmt.Sprintf("%s_x%d", name, i), netlist.CellXor2,
			netlist.Pins{{"A", q[i]}, {"B", carry}, {"Z", sum}}); err != nil {
			return err
		}
		if _, err := m.AddInstance(fmt.Sprintf("%s_a%d", name, i), netlist.CellAnd2,
			netlist.Pins{{"A", sum}, {"B", nrst}, {"Z", dnet}}); err != nil {
			return err
		}
		if _, err := m.AddInstance(fmt.Sprintf("%s_f%d", name, i), netlist.CellDFF,
			netlist.Pins{{"D", dnet}, {"CK", ck}, {"Q", q[i]}}); err != nil {
			return err
		}
		if i < len(q)-1 {
			nc := fmt.Sprintf("%s_c%d", name, i+1)
			if _, err := m.AddInstance(fmt.Sprintf("%s_cg%d", name, i), netlist.CellAnd2,
				netlist.Pins{{"A", carry}, {"B", q[i]}, {"Z", nc}}); err != nil {
				return err
			}
			carry = nc
		}
	}
	return nil
}
