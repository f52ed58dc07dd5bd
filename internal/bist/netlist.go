package bist

import (
	"fmt"
	"strconv"

	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
)

// Structural generation of the Fig. 2 BIST blocks.  The generated hardware
// assumes power-of-two word counts (the memory compiler pads macros up);
// descending address orders are produced by reflecting the up-counter
// through XOR gates, the classical BIST trick.  The behavioural Engine in
// this package handles arbitrary word counts and is the functional
// reference; the netlists exist to be inserted into the SOC design and to
// account hardware cost in NAND2 equivalents.

func bitsFor(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

func busBits(name string, w int) []string {
	return netlist.Port{Name: name, Width: w}.Bits()
}

// addUpCounter builds an n-bit synchronous up counter with enable and
// synchronous reset: on each ck edge, q <= rst ? 0 : (en ? q+1 : q).
func addUpCounter(m *netlist.Module, name, ck, rst, en string, q []string) error {
	n := len(q)
	carry := en
	for i := 0; i < n; i++ {
		is := strconv.Itoa(i)
		sum := name + "_sum" + is
		if _, err := m.AddInstance(name+"_x"+is, netlist.CellXor2,
			netlist.Pins{{"A", q[i]}, {"B", carry}, {"Z", sum}}); err != nil {
			return err
		}
		// Synchronous reset: d = sum AND NOT rst.
		nrst := name + "_nrst"
		if i == 0 {
			m.AddNet(nrst)
			if _, err := m.AddInstance(name+"_rstinv", netlist.CellInv,
				netlist.Pins{{"A", rst}, {"Z", nrst}}); err != nil {
				return err
			}
		}
		d := name + "_d" + is
		if _, err := m.AddInstance(name+"_a"+is, netlist.CellAnd2,
			netlist.Pins{{"A", sum}, {"B", nrst}, {"Z", d}}); err != nil {
			return err
		}
		if _, err := m.AddInstance(name+"_ff"+is, netlist.CellDFF,
			netlist.Pins{{"D", d}, {"CK", ck}, {"Q", q[i]}}); err != nil {
			return err
		}
		if i < n-1 {
			nextCarry := name + "_c" + strconv.Itoa(i+1)
			if _, err := m.AddInstance(name+"_cg"+is, netlist.CellAnd2,
				netlist.Pins{{"A", carry}, {"B", q[i]}, {"Z", nextCarry}}); err != nil {
				return err
			}
			carry = nextCarry
		}
	}
	return nil
}

// addEqualsConst builds out = (q == value) for a register q.
func addEqualsConst(m *netlist.Module, name string, q []string, value int, out string) error {
	terms := make([]string, len(q))
	for i := range q {
		if value&(1<<i) != 0 {
			terms[i] = q[i]
			continue
		}
		is := strconv.Itoa(i)
		inv := name + "_qi" + is
		if _, err := m.AddInstance(name+"_inv"+is, netlist.CellInv,
			netlist.Pins{{"A", q[i]}, {"Z", inv}}); err != nil {
			return err
		}
		terms[i] = inv
	}
	_, err := netlist.AddAndTree(m, name+"_eq", terms, out)
	return err
}

// GenerateTPG builds the per-memory Test Pattern Generator: an address
// up-counter with descending-order reflection, data-background expansion,
// a read comparator and a sticky fail flag.
//
// Ports: CK, RST, EN (group active: qualifies WE and the comparator), ADV
// (word-advance pulse from the sequencer: steps the address counter), CMDR
// (command is a read), CMDD (March data value), DIR (1 = descending),
// Q[bits] from the RAM; outputs ADDR[addrBits], D[bits], WE, ELEMDONE
// (address sweep finished) and FAIL.
func GenerateTPG(d *netlist.Design, name string, cfg memory.Config) (*netlist.Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ab := cfg.AddrBits()
	m := netlist.NewModule(name)
	for _, p := range []string{"CK", "RST", "EN", "ADV", "CMDR", "CMDD", "DIR", "BGSEL"} {
		m.MustPort(p, netlist.In, 1)
	}
	m.MustPort("Q", netlist.In, cfg.Bits)
	if cfg.Kind == memory.TwoPort {
		// Port-B verification: QB is compared instead of Q when PBSEL=1.
		m.MustPort("QB", netlist.In, cfg.Bits)
		m.MustPort("PBSEL", netlist.In, 1)
	}
	m.MustPort("ADDR", netlist.Out, ab)
	m.MustPort("D", netlist.Out, cfg.Bits)
	m.MustPort("WE", netlist.Out, 1)
	m.MustPort("ELEMDONE", netlist.Out, 1)
	m.MustPort("FAIL", netlist.Out, 1)

	// Address counter steps on ADV (last op of each word) and wraps
	// naturally at the power-of-two boundary for the next element.
	cnt := busBits("cnt", ab)
	for _, c := range cnt {
		m.AddNet(c)
	}
	if err := addUpCounter(m, "ac", "CK", "RST", "ADV", cnt); err != nil {
		return nil, err
	}
	// Descending reflection: ADDR = cnt XOR DIR.
	for i := 0; i < ab; i++ {
		if _, err := m.AddInstance("ar"+strconv.Itoa(i), netlist.CellXor2,
			netlist.Pins{{"A", cnt[i]}, {"B", "DIR"}, {"Z", netlist.BitName("ADDR", i, ab)}}); err != nil {
			return nil, err
		}
	}
	// Terminal count -> ELEMDONE.
	if err := addEqualsConst(m, "tc", cnt, cfg.Words-1, "ELEMDONE"); err != nil {
		return nil, err
	}
	// Data expansion: BGSEL=0 gives the solid background (D[i] = CMDD),
	// BGSEL=1 the checkerboard (odd bits inverted).  The comparator below
	// compares against the same expanded data, so both passes self-check.
	for i := 0; i < cfg.Bits; i++ {
		out, dx := netlist.BitName("D", i, cfg.Bits), "dx"+strconv.Itoa(i)
		if i%2 == 1 {
			if _, err := m.AddInstance(dx, netlist.CellXor2,
				netlist.Pins{{"A", "CMDD"}, {"B", "BGSEL"}, {"Z", out}}); err != nil {
				return nil, err
			}
			continue
		}
		if _, err := m.AddInstance(dx, netlist.CellBuf,
			netlist.Pins{{"A", "CMDD"}, {"Z", out}}); err != nil {
			return nil, err
		}
	}
	// WE = EN-qualified write command.
	m.MustInstance("winv", netlist.CellInv, netlist.Pins{{"A", "CMDR"}, {"Z", "nread"}})
	m.MustInstance("wand", netlist.CellAnd2, netlist.Pins{{"A", "nread"}, {"B", "EN"}, {"Z", "WE"}})
	// Comparator: mismatch on any bit during a read (two-port macros
	// compare the PBSEL-selected port).
	xors := make([]string, cfg.Bits)
	for i := 0; i < cfg.Bits; i++ {
		is := strconv.Itoa(i)
		src := netlist.BitName("Q", i, cfg.Bits)
		if cfg.Kind == memory.TwoPort {
			sel := "qsel" + is
			m.AddNet(sel)
			if _, err := m.AddInstance("qm"+is, netlist.CellMux2,
				netlist.Pins{{"A", src}, {"B", netlist.BitName("QB", i, cfg.Bits)},
					{"S", "PBSEL"}, {"Z", sel}}); err != nil {
				return nil, err
			}
			src = sel
		}
		xors[i] = "cmp" + is
		m.AddNet(xors[i])
		if _, err := m.AddInstance("cx"+is, netlist.CellXor2,
			netlist.Pins{{"A", src}, {"B", netlist.BitName("D", i, cfg.Bits)}, {"Z", xors[i]}}); err != nil {
			return nil, err
		}
	}
	if _, err := netlist.AddOrTree(m, "mis", xors, "mismatch"); err != nil {
		return nil, err
	}
	m.MustInstance("misr", netlist.CellAnd2, netlist.Pins{{"A", "mismatch"}, {"B", "CMDR"}, {"Z", "rdmis"}})
	m.MustInstance("misq", netlist.CellAnd2, netlist.Pins{{"A", "rdmis"}, {"B", "EN"}, {"Z", "qmis"}})
	// Sticky fail flag.
	m.MustInstance("for", netlist.CellOr2, netlist.Pins{{"A", "qmis"}, {"B", "FAIL"}, {"Z", "fnext"}})
	m.MustInstance("fclr", netlist.CellInv, netlist.Pins{{"A", "RST"}, {"Z", "nrstf"}})
	m.MustInstance("fand", netlist.CellAnd2, netlist.Pins{{"A", "fnext"}, {"B", "nrstf"}, {"Z", "fd"}})
	m.MustInstance("fff", netlist.CellDFF, netlist.Pins{{"D", "fd"}, {"CK", "CK"}, {"Q", "FAIL"}})
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}

// GenerateSequencer builds the March sequencer: an op counter and an
// element counter plus the algorithm ROM decoded to the command lines.
//
// Ports: CK, RST, EN, ELEMDONE (all TPGs finished the element sweep);
// outputs CMDR, CMDD, DIR, ADV (word advance, pulses on the last op), DONE
// (algorithm finished) and RUN (its complement, used to gate the TPG
// enables so no spurious write fires after the last element).
func GenerateSequencer(d *netlist.Design, name string, alg march.Algorithm) (*netlist.Module, error) {
	if err := alg.Validate(); err != nil {
		return nil, err
	}
	nElem := len(alg.Elements)
	maxOps := 0
	for _, e := range alg.Elements {
		if len(e.Ops) > maxOps {
			maxOps = len(e.Ops)
		}
	}
	eb, ob := bitsFor(nElem+1), bitsFor(maxOps)
	m := netlist.NewModule(name)
	for _, p := range []string{"CK", "RST", "EN", "ELEMDONE"} {
		m.MustPort(p, netlist.In, 1)
	}
	for _, p := range []string{"CMDR", "CMDD", "DIR", "ADV", "DONE", "RUN"} {
		m.MustPort(p, netlist.Out, 1)
	}
	ecnt, ocnt := busBits("ecnt", eb), busBits("ocnt", ob)
	for _, n := range append(append([]string{}, ecnt...), ocnt...) {
		m.AddNet(n)
	}
	// One-hot decodes of the element and op counters.
	eHot := make([]string, nElem+1)
	for i := range eHot {
		eHot[i] = "eh" + strconv.Itoa(i)
		m.AddNet(eHot[i])
	}
	if _, err := netlist.AddDecoder(m, "edec", ecnt, "", eHot); err != nil {
		return nil, err
	}
	oHot := make([]string, maxOps)
	for i := range oHot {
		oHot[i] = "oh" + strconv.Itoa(i)
		m.AddNet(oHot[i])
	}
	if _, err := netlist.AddDecoder(m, "odec", ocnt, "", oHot); err != nil {
		return nil, err
	}
	// ROM: minterms for read commands, data=1 commands, last-op flags and
	// descending elements.
	var readT, dataT, lastT, dirT []string
	mt := 0
	minterm := func(e, o int) (string, error) {
		n := "mt" + strconv.Itoa(mt)
		mt++
		m.AddNet(n)
		_, err := m.AddInstance("mi"+n, netlist.CellAnd2,
			netlist.Pins{{"A", eHot[e]}, {"B", oHot[o]}, {"Z", n}})
		return n, err
	}
	for ei, e := range alg.Elements {
		if e.Order == march.Down {
			dirT = append(dirT, eHot[ei])
		}
		for oi, op := range e.Ops {
			if op.Read {
				t, err := minterm(ei, oi)
				if err != nil {
					return nil, err
				}
				readT = append(readT, t)
			}
			if op.Value == 1 {
				t, err := minterm(ei, oi)
				if err != nil {
					return nil, err
				}
				dataT = append(dataT, t)
			}
		}
		t, err := minterm(ei, len(e.Ops)-1)
		if err != nil {
			return nil, err
		}
		lastT = append(lastT, t)
	}
	emitOr := func(terms []string, out string) error {
		if len(terms) == 0 {
			_, err := m.AddInstance(out+"_tie", netlist.CellTie0, netlist.Pins{{"Z", out}})
			return err
		}
		_, err := netlist.AddOrTree(m, out+"_or", terms, out)
		return err
	}
	if err := emitOr(readT, "CMDR"); err != nil {
		return nil, err
	}
	if err := emitOr(dataT, "CMDD"); err != nil {
		return nil, err
	}
	if err := emitOr(dirT, "DIR"); err != nil {
		return nil, err
	}
	if err := emitOr(lastT, "lastop"); err != nil {
		return nil, err
	}
	// ADV pulses on the last op of each word while enabled and running.
	m.MustInstance("ninv", netlist.CellInv, netlist.Pins{{"A", "DONE"}, {"Z", "RUN"}})
	m.MustInstance("adv1", netlist.CellAnd2, netlist.Pins{{"A", "lastop"}, {"B", "EN"}, {"Z", "adv_en"}})
	m.MustInstance("adv2", netlist.CellAnd2, netlist.Pins{{"A", "adv_en"}, {"B", "RUN"}, {"Z", "ADV"}})
	// Op counter: increments while enabled, resets on last op or RST.
	m.MustInstance("orst", netlist.CellOr2, netlist.Pins{{"A", "RST"}, {"B", "ADV"}, {"Z", "oprst"}})
	if err := addUpCounter(m, "oc", "CK", "oprst", "EN", ocnt); err != nil {
		return nil, err
	}
	// Element counter: increments when the element sweep completes.
	m.MustInstance("eadv", netlist.CellAnd2, netlist.Pins{{"A", "ADV"}, {"B", "ELEMDONE"}, {"Z", "elemadv"}})
	if err := addUpCounter(m, "ec", "CK", "RST", "elemadv", ecnt); err != nil {
		return nil, err
	}
	if err := addEqualsConst(m, "dn", ecnt, nElem, "DONE"); err != nil {
		return nil, err
	}
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}

// GenerateController builds the shared BIST controller for nGroups
// sequencer groups and the tester interface pins of Fig. 2.
//
// Ports: the tester pins (MBS, MBR, MBC, MSI, MSO, MBO, MRD) plus, per
// group, GDONE[i]/GFAIL[i] inputs and GO[i] outputs.
func GenerateController(d *netlist.Design, name string, nGroups int) (*netlist.Module, error) {
	if nGroups < 1 {
		return nil, fmt.Errorf("bist: controller needs at least one group")
	}
	m := netlist.NewModule(name)
	for _, p := range []string{PinMBS, PinMBR, PinMBC, PinMSI} {
		m.MustPort(p, netlist.In, 1)
	}
	for _, p := range []string{PinMSO, PinMBO, PinMRD} {
		m.MustPort(p, netlist.Out, 1)
	}
	m.MustPort("GDONE", netlist.In, nGroups)
	m.MustPort("GFAIL", netlist.In, nGroups)
	m.MustPort("GO", netlist.Out, nGroups)

	gb := bitsFor(nGroups + 1)
	gcnt := busBits("gcnt", gb)
	for _, n := range gcnt {
		m.AddNet(n)
	}
	// Running flag: set by MBS, cleared by MBR or MBO.
	m.MustInstance("rset", netlist.CellOr2, netlist.Pins{{"A", PinMBS}, {"B", "run"}, {"Z", "rs"}})
	m.MustInstance("rov", netlist.CellInv, netlist.Pins{{"A", PinMBO}, {"Z", "nover"}})
	m.MustInstance("rrst", netlist.CellInv, netlist.Pins{{"A", PinMBR}, {"Z", "nrst"}})
	m.MustInstance("ra1", netlist.CellAnd2, netlist.Pins{{"A", "rs"}, {"B", "nover"}, {"Z", "ra"}})
	m.MustInstance("ra2", netlist.CellAnd2, netlist.Pins{{"A", "ra"}, {"B", "nrst"}, {"Z", "rd"}})
	m.MustInstance("rff", netlist.CellDFF, netlist.Pins{{"D", "rd"}, {"CK", PinMBC}, {"Q", "run"}})

	// Active-group one-hot; GO[i] = hot[i] AND run.
	hot := make([]string, nGroups+1)
	for i := range hot {
		hot[i] = "hot" + strconv.Itoa(i)
		m.AddNet(hot[i])
	}
	if _, err := netlist.AddDecoder(m, "gdec", gcnt, "", hot); err != nil {
		return nil, err
	}
	for i := 0; i < nGroups; i++ {
		m.MustInstance("go"+strconv.Itoa(i), netlist.CellAnd2,
			netlist.Pins{{"A", hot[i]}, {"B", "run"}, {"Z", netlist.BitName("GO", i, nGroups)}})
	}
	// Advance when the active group reports done.
	adv := make([]string, nGroups)
	for i := 0; i < nGroups; i++ {
		is := strconv.Itoa(i)
		adv[i] = "adv" + is
		m.AddNet(adv[i])
		m.MustInstance("ad"+is, netlist.CellAnd2,
			netlist.Pins{{"A", netlist.BitName("GO", i, nGroups)}, {"B", netlist.BitName("GDONE", i, nGroups)}, {"Z", adv[i]}})
	}
	if _, err := netlist.AddOrTree(m, "advor", adv, "gadv"); err != nil {
		return nil, err
	}
	if err := addUpCounter(m, "gc", PinMBC, PinMBR, "gadv", gcnt); err != nil {
		return nil, err
	}
	if err := addEqualsConst(m, "ov", gcnt, nGroups, "over"); err != nil {
		return nil, err
	}
	m.MustInstance("ovb", netlist.CellBuf, netlist.Pins{{"A", "over"}, {"Z", PinMBO}})
	// Sticky per-group fail flags feed MRD (go/no-go, active high = pass)
	// and MSO (serial diagnosis, selected by the group counter).
	fails := make([]string, nGroups)
	for i := 0; i < nGroups; i++ {
		is := strconv.Itoa(i)
		fl, cap, fn, fd := "fl"+is, "fc"+is, "fn"+is, "fd"+is
		fails[i] = fl
		m.AddNet(fl)
		m.AddNet(cap)
		m.MustInstance("fa"+is, netlist.CellAnd2,
			netlist.Pins{{"A", netlist.BitName("GFAIL", i, nGroups)}, {"B", netlist.BitName("GO", i, nGroups)}, {"Z", cap}})
		m.MustInstance("fo"+is, netlist.CellOr2,
			netlist.Pins{{"A", cap}, {"B", fl}, {"Z", fn}})
		m.MustInstance("fr"+is, netlist.CellAnd2,
			netlist.Pins{{"A", fn}, {"B", "nrst"}, {"Z", fd}})
		m.MustInstance("ff"+is, netlist.CellDFF,
			netlist.Pins{{"D", fd}, {"CK", PinMBC}, {"Q", fl}})
	}
	if _, err := netlist.AddOrTree(m, "anyfail", fails, "failany"); err != nil {
		return nil, err
	}
	m.MustInstance("mrd", netlist.CellInv, netlist.Pins{{"A", "failany"}, {"Z", PinMRD}})
	// Serial diagnosis output: group fail flag selected by the counter,
	// qualified by the serial command input (MSI acts as output enable).
	if _, err := netlist.AddMuxTree(m, "somux", fails, gcnt[:bitsFor(nGroups)], "sosel"); err != nil {
		return nil, err
	}
	m.MustInstance("soq", netlist.CellAnd2, netlist.Pins{{"A", "sosel"}, {"B", PinMSI}, {"Z", PinMSO}})
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}
