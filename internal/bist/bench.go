package bist

import (
	"fmt"

	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
)

// BuildVerifyBench builds a self-contained testbench design for one
// sequencer group: the generated sequencer, one generated TPG per memory
// and the same enable gating GenerateBIST uses (EN = group enable AND
// sequencer RUN, ELEMDONE = AND of all TPG element-done flags, group fail =
// OR of all TPG fail flags).  The RAM macros are left out on purpose —
// every RAM pin is exposed at the bench top so a harness can emulate the
// macros cycle by cycle and observe the complete pin trace.
//
// Bench module "bench" ports: inputs ck, rst, en, bgsel, pbsel and per
// memory i q<i> (plus qb<i> for two-port macros); outputs cmdr, cmdd, dir,
// adv, elemdone, done, fail and per memory i addr<i>, d<i>, we<i>, fail<i>.
func BuildVerifyBench(alg march.Algorithm, mems []memory.Config) (*netlist.Design, error) {
	if len(mems) == 0 {
		return nil, fmt.Errorf("bist: verify bench needs at least one memory")
	}
	d := netlist.NewDesign("tb", nil)
	if _, err := GenerateSequencer(d, "seq", alg); err != nil {
		return nil, err
	}
	tb := netlist.NewModule("bench")
	for _, p := range []string{"ck", "rst", "en", "bgsel", "pbsel"} {
		tb.MustPort(p, netlist.In, 1)
	}
	for _, p := range []string{"cmdr", "cmdd", "dir", "adv", "elemdone", "done", "fail"} {
		tb.MustPort(p, netlist.Out, 1)
	}
	tb.MustInstance("u_seq", "seq", netlist.Pins{
		{"CK", "ck"}, {"RST", "rst"}, {"EN", "en"}, {"ELEMDONE", "elemdone"},
		{"CMDR", "cmdr"}, {"CMDD", "cmdd"}, {"DIR", "dir"}, {"ADV", "adv"},
		{"DONE", "done"}, {"RUN", "run"},
	})
	tb.MustInstance("engate", netlist.CellAnd2, netlist.Pins{{"A", "en"}, {"B", "run"}, {"Z", "tpen"}})
	var elemDones, fails []string
	for i, cfg := range mems {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		tpgName := fmt.Sprintf("tpg%d", i)
		if _, err := GenerateTPG(d, tpgName, cfg); err != nil {
			return nil, err
		}
		ab := cfg.AddrBits()
		addrP, dP, qP := fmt.Sprintf("addr%d", i), fmt.Sprintf("d%d", i), fmt.Sprintf("q%d", i)
		weP, failP := fmt.Sprintf("we%d", i), fmt.Sprintf("fail%d", i)
		tb.MustPort(qP, netlist.In, cfg.Bits)
		tb.MustPort(addrP, netlist.Out, ab)
		tb.MustPort(dP, netlist.Out, cfg.Bits)
		tb.MustPort(weP, netlist.Out, 1)
		tb.MustPort(failP, netlist.Out, 1)
		ed := fmt.Sprintf("ed%d", i)
		tb.AddNet(ed)
		conns := netlist.Pins{
			{"CK", "ck"}, {"RST", "rst"}, {"EN", "tpen"}, {"ADV", "adv"},
			{"CMDR", "cmdr"}, {"CMDD", "cmdd"}, {"DIR", "dir"}, {"BGSEL", "bgsel"},
			{"WE", weP}, {"ELEMDONE", ed}, {"FAIL", failP},
		}
		for b := 0; b < ab; b++ {
			conns = append(conns, [2]string{netlist.BitName("ADDR", b, ab), netlist.BitName(addrP, b, ab)})
		}
		for b := 0; b < cfg.Bits; b++ {
			conns = append(conns,
				[2]string{netlist.BitName("D", b, cfg.Bits), netlist.BitName(dP, b, cfg.Bits)},
				[2]string{netlist.BitName("Q", b, cfg.Bits), netlist.BitName(qP, b, cfg.Bits)})
		}
		if cfg.Kind == memory.TwoPort {
			qbP := fmt.Sprintf("qb%d", i)
			tb.MustPort(qbP, netlist.In, cfg.Bits)
			for b := 0; b < cfg.Bits; b++ {
				conns = append(conns, [2]string{netlist.BitName("QB", b, cfg.Bits), netlist.BitName(qbP, b, cfg.Bits)})
			}
			conns = append(conns, [2]string{"PBSEL", "pbsel"})
		}
		tb.MustInstance(fmt.Sprintf("u_tpg%d", i), tpgName, conns)
		elemDones = append(elemDones, ed)
		fails = append(fails, failP)
	}
	if _, err := netlist.AddAndTree(tb, "eda", elemDones, "elemdone"); err != nil {
		return nil, err
	}
	if _, err := netlist.AddOrTree(tb, "flo", fails, "fail"); err != nil {
		return nil, err
	}
	d.MustAddModule(tb)
	d.Top = "bench"
	if issues := d.Lint(); len(issues) > 0 {
		return nil, fmt.Errorf("bist: verify bench lint: %v", issues[0])
	}
	return d, nil
}
