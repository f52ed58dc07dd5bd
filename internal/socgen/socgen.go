// Package socgen builds behavioural SOC netlists for arbitrary core sets,
// following the structural convention the test-insertion tool expects
// (instance "u_<core>" of module "core_<core>", clocks from an on-chip PLL,
// resets from chip pins).  The DSC model of Fig. 3 is one instance of this
// builder; synthetic multi-core SOCs for robustness/scaling studies are
// another.
package socgen

import (
	"fmt"
	"sort"

	"steac/internal/netlist"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// Options configures the generated SOC.
type Options struct {
	// Name is the design name; the top module is always called "soc".
	Name string
	// Blocks adds behavioural logic blocks (name -> NAND2-equivalent
	// gates), e.g. a processor or glue logic; they clock from the first
	// PLL output.
	Blocks map[string]float64
	// PLLGates is the PLL block's bookkeeping area (default 800).
	PLLGates float64
}

// Build constructs the SOC.  Every core clock pin gets its own PLL output
// (in core order), every core reset pin gets its own chip reset pin, and
// each core's functional IOs surface as "<core>_pi"/"<core>_po" buses.
func Build(cores []*testinfo.Core, opts Options) (*netlist.Design, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("socgen: no cores")
	}
	if opts.Name == "" {
		opts.Name = "soc"
	}
	if opts.PLLGates == 0 {
		opts.PLLGates = 800
	}
	d := netlist.NewDesign(opts.Name, nil)

	nClocks, nResets := 0, 0
	for _, c := range cores {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, err := wrapper.GenerateCoreModule(d, c); err != nil {
			return nil, err
		}
		nClocks += len(c.Clocks)
		nResets += len(c.Resets)
	}

	pll := netlist.NewModule("pll")
	pll.Behavioral = true
	pll.AreaOverride = opts.PLLGates
	pll.MustPort("xtal", netlist.In, 1)
	pll.MustPort("ck", netlist.Out, nClocks)
	d.MustAddModule(pll)

	blockNames := make([]string, 0, len(opts.Blocks))
	for name := range opts.Blocks {
		blockNames = append(blockNames, name)
	}
	sort.Strings(blockNames)
	for _, name := range blockNames {
		m := netlist.NewModule(name)
		m.Behavioral = true
		m.AreaOverride = opts.Blocks[name]
		m.MustPort("clk", netlist.In, 1)
		m.MustPort("rstn", netlist.In, 1)
		d.MustAddModule(m)
	}

	top := netlist.NewModule("soc")
	top.MustPort("xtal", netlist.In, 1)
	top.MustPort("rstn", netlist.In, 1)
	if nResets > 0 {
		top.MustPort("rst", netlist.In, nResets)
	}
	pllConns := netlist.Pins{{"xtal", "xtal"}}
	for i := 0; i < nClocks; i++ {
		pllConns = append(pllConns, [2]string{netlist.BitName("ck", i, nClocks), fmt.Sprintf("ck%d", i)})
	}
	top.MustInstance("u_pll", "pll", pllConns)
	for _, name := range blockNames {
		top.MustInstance("u_"+name, name, netlist.Pins{{"clk", "ck0"}, {"rstn", "rstn"}})
	}

	ckIdx, rstIdx := 0, 0
	for _, c := range cores {
		lower := lowerName(c.Name)
		if c.PIs > 0 {
			top.MustPort(lower+"_pi", netlist.In, c.PIs)
		}
		if c.POs > 0 {
			top.MustPort(lower+"_po", netlist.Out, c.POs)
		}
		conns := make(netlist.Pins, 0, c.PIs+c.POs+len(c.Clocks)+len(c.Resets))
		for i := 0; i < c.PIs; i++ {
			conns = append(conns, [2]string{netlist.BitName("pi", i, c.PIs), fmt.Sprintf("%s_pi[%d]", lower, i)})
		}
		for i := 0; i < c.POs; i++ {
			conns = append(conns, [2]string{netlist.BitName("po", i, c.POs), fmt.Sprintf("%s_po[%d]", lower, i)})
		}
		for _, ck := range c.Clocks {
			conns = append(conns, [2]string{ck, fmt.Sprintf("ck%d", ckIdx)})
			ckIdx++
		}
		for _, r := range c.Resets {
			conns = append(conns, [2]string{r, netlist.BitName("rst", rstIdx, nResets)})
			rstIdx++
		}
		top.MustInstance("u_"+c.Name, wrapper.CoreModuleName(c.Name), conns)
	}
	d.MustAddModule(top)
	d.Top = "soc"
	if issues := d.Lint(); len(issues) != 0 {
		return nil, fmt.Errorf("socgen: generated SOC fails lint: %v", issues[0])
	}
	return d, nil
}

func lowerName(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}
