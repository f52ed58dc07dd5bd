package xcheck

import (
	"context"
	"fmt"

	"steac/internal/netlist"
	"steac/internal/pattern"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// BuildWrapperDesign assembles the full gate-level stack for one wrapped
// core: the structural scan core (pattern.BuildStructuralCore), the
// generated IEEE-1500-style wrapper around it, and an "xtop" shell that
// ties wrck and every core clock to a single "tck" port so one Tick
// advances boundary cells and core flops together (on silicon they are the
// same test clock; the netlist keeps them as separate ports).
func BuildWrapperDesign(core *testinfo.Core, width int, part wrapper.Partitioner) (*netlist.Design, wrapper.Plan, error) {
	d := netlist.NewDesign("xwrap", netlist.DefaultLibrary())
	if _, err := pattern.BuildStructuralCore(d, core); err != nil {
		return nil, wrapper.Plan{}, err
	}
	plan, err := wrapper.DesignChains(core, width, part)
	if err != nil {
		return nil, wrapper.Plan{}, err
	}
	gen, err := wrapper.Generate(d, core, plan)
	if err != nil {
		return nil, wrapper.Plan{}, err
	}

	x := netlist.NewModule("xtop")
	x.MustPort("tck", netlist.In, 1)
	conns := netlist.Pins{{"wrck", "tck"}}
	for _, ck := range core.Clocks {
		conns = append(conns, [2]string{ck, "tck"})
	}
	addPort := func(name string, dir netlist.PortDir, w int) {
		x.MustPort(name, dir, w)
		for i := 0; i < w; i++ {
			b := netlist.BitName(name, i, w)
			conns = append(conns, [2]string{b, b})
		}
	}
	if core.PIs > 0 {
		addPort("pi", netlist.In, core.PIs)
	}
	if core.POs > 0 {
		addPort("po", netlist.Out, core.POs)
	}
	for _, p := range []string{"shift", "update", "mode", "safe", "shiftwir", "updatewir"} {
		addPort(p, netlist.In, 1)
	}
	addPort("wsi", netlist.In, plan.Width)
	addPort("wso", netlist.Out, plan.Width)
	addPort("wirso", netlist.Out, 1)
	for _, pins := range [][]string{core.Resets, core.ScanEnables, core.TestEnables} {
		for _, p := range pins {
			addPort(p, netlist.In, 1)
		}
	}
	x.MustInstance("u_wrap", gen.Module.Name, conns)
	if err := d.AddModule(x); err != nil {
		return nil, wrapper.Plan{}, err
	}
	return d, plan, nil
}

// wrapPins caches compiled net ids for the xtop harness — data pins, the
// clock and strobe nets, the core's scan enables and the nets the INTEST
// posture holds low, resolved once per bench — and the wso labels
// mismatch reports use.  The ids are the compiled program's, so packed
// sims built from the same base share them.
type wrapPins struct {
	wsi, wso []int
	wsoLbl   []string
	wirso    int

	tck, update, updatewir int
	shift, shiftwir        int
	se                     []int // core scan enables
	mode                   int
	quiet                  []int // SAFE, the strobes, core PIs, resets, scan and test enables
}

func newWrapPins(sim *netlist.CompiledSim, width int, core *testinfo.Core) wrapPins {
	p := wrapPins{
		wsi:       sim.BusIDs("wsi", width),
		wso:       sim.BusIDs("wso", width),
		wsoLbl:    bitLabels("wso", width),
		wirso:     sim.NetID("wirso"),
		tck:       sim.NetID("tck"),
		update:    sim.NetID("update"),
		updatewir: sim.NetID("updatewir"),
		shift:     sim.NetID("shift"),
		shiftwir:  sim.NetID("shiftwir"),
		mode:      sim.NetID("mode"),
	}
	for _, se := range core.ScanEnables {
		p.se = append(p.se, sim.NetID(se))
	}
	quiet := []string{"safe", "shift", "update", "shiftwir", "updatewir"}
	for i := 0; i < core.PIs; i++ {
		quiet = append(quiet, netlist.BitName("pi", i, core.PIs))
	}
	for _, pins := range [][]string{core.Resets, core.ScanEnables, core.TestEnables} {
		quiet = append(quiet, pins...)
	}
	for _, name := range quiet {
		if id := sim.NetID(name); id >= 0 {
			p.quiet = append(p.quiet, id)
		}
	}
	return p
}

// wrapBench is one wrapper stack's scan session: the harness pins and the
// translated program streamed through them.
type wrapBench struct {
	pins   wrapPins
	prog   *pattern.Program
	layout pattern.SessionLayout
}

func newWrapBench(sim *netlist.CompiledSim, core *testinfo.Core, plan wrapper.Plan, src pattern.Source) wrapBench {
	lane := pattern.NewScanLane(core, src, plan, 0, 0)
	return wrapBench{
		pins:   newWrapPins(sim, plan.Width, core),
		prog:   &pattern.Program{TamWidth: plan.Width},
		layout: pattern.SessionLayout{Cycles: lane.Cycles, Chains: []pattern.ChainLane{lane}},
	}
}

// scanObserver sees every comparison of a wrapper stream: at counts cycles
// from the start of the stream, cycle from the start of its session (the
// WIR excursion, then the scan program), got is the compared pin's
// lane-word and want the expected bit.  Returning false ends the stream.
type scanObserver func(at, cycle int, pin string, got uint64, want bool) bool

// drive is the wrapper bench's one drive protocol.  It resets the harness
// into INTEST posture (functional and core control pins quiet, MODE on,
// SAFE off, WIR strobes idle), then runs two sessions:
//
//   - the WIR excursion: program BYPASS, prove the serial path through the
//     one-bit WBY register (one cycle in, one cycle out), then reload
//     INTESTSCAN while checking the old instruction echoes out on wirso;
//   - the translated scan program, with the tester's protocol: shift
//     cycles raise SHIFT/SE and present wsi before the tck edge (wso is
//     read pre-shift), capture cycles drop them, pulse UPDATE to transfer
//     loaded stimulus onto the core inputs, and clock once.  The WIR is
//     back in INTESTSCAN, and the first pattern load initializes every
//     chain flop, so the excursion leaves no residue.
//
// Every non-X expectation goes through obs.  The WIR excursion always runs
// to its end; if any of its comparisons returned false the scan program is
// skipped, and a false from a scan comparison ends the stream.  ctx is
// polled every equivPollCycles streamed cycles; a cancel aborts the stream
// (the caller surfaces ctx.Err()).  It returns the stream's length in
// cycles, the excursion's plus the scan program's, however far it ran.
func (w *wrapBench) drive(ctx context.Context, e engine, obs scanObserver) (int, error) {
	pins := &w.pins
	e.Reset()
	e.SetID(pins.mode, true)
	for _, id := range pins.quiet {
		e.SetID(id, false)
	}

	wir, ok := 0, true
	shiftWIR := func(bits []bool, echo []int) {
		e.SetID(pins.shiftwir, true)
		for k, b := range bits {
			e.SetID(pins.wsi[0], b)
			e.Settle()
			if echo != nil && echo[k] >= 0 {
				ok = obs(wir, wir, "wirso", e.GetWordID(pins.wirso), echo[k] == 1) && ok
			}
			e.TickID(pins.tck)
			wir++
		}
		e.SetID(pins.shiftwir, false)
		e.TickID(pins.updatewir)
	}
	// Program BYPASS (code 3): the first bit shifted lands in the unused
	// third stage, the last two become q1=1, q0=1.
	shiftWIR([]bool{false, true, true}, nil)
	// The WBY register must now delay wsi[0] to wso[0] by exactly one cycle.
	for _, b := range []bool{true, false, true, true, false} {
		e.SetID(pins.wsi[0], b)
		e.TickID(pins.tck)
		wir++
		ok = obs(wir, wir, "wso[0]@bypass", e.GetWordID(pins.wso[0]), b) && ok
	}
	// Reload INTESTSCAN (code 0); the old BYPASS bits echo on wirso in
	// shift order: stage-2 first (0), then the two programmed ones.
	shiftWIR([]bool{false, false, false}, []int{0, 1, 1})
	if !ok {
		return wir + w.layout.Cycles, nil
	}

	setSE := func(v bool) {
		e.SetID(pins.shift, v)
		for _, id := range pins.se {
			e.SetID(id, v)
		}
	}
	canceled := pollEvery(ctx)
	err := w.prog.Stream(w.layout, func(c int, cyc *pattern.Cycle) bool {
		if canceled() {
			return false
		}
		// The layout's one chain lane is the core's.
		switch cyc.Actions[0] {
		case pattern.ActShift:
			setSE(true)
			for i, id := range pins.wsi {
				e.SetID(id, cyc.TamIn.Level(i))
			}
			e.Settle()
			for i, id := range pins.wso {
				want := cyc.TamExpect.Get(i)
				if want == pattern.BX {
					continue
				}
				if !obs(wir+c, c, pins.wsoLbl[i], e.GetWordID(id), want == pattern.B1) {
					return false
				}
			}
			e.TickID(pins.tck)
		case pattern.ActCapture:
			setSE(false)
			e.TickID(pins.update)
			e.TickID(pins.tck)
		default:
			e.TickID(pins.tck)
		}
		return true
	})
	return wir + w.layout.Cycles, err
}

// VerifyWrapperContext proves a generated wrapper + structural core stack executes
// a complete translated scan program bit-exactly: every non-X TAM
// expectation the pattern translator emits must appear on the wso pins,
// pattern after pattern, plus a WIR excursion showing BYPASS takes over the
// serial path and INTESTSCAN restores it.
//
// The scan stream polls ctx every equivPollCycles cycles, and a canceled check returns
// ctx.Err() wrapped with the stage name.
func VerifyWrapperContext(ctx context.Context, name string, core *testinfo.Core, width int, opts Options) (EquivResult, *pattern.ATPG, error) {
	tm := obsSpanVerify.Start()
	defer tm.Stop()
	d, plan, err := BuildWrapperDesign(core, width, wrapper.LPT)
	if err != nil {
		return EquivResult{Name: name}, nil, err
	}
	sim, err := netlist.NewCompiledSim(d, "xtop")
	if err != nil {
		return EquivResult{Name: name}, nil, err
	}
	return verifyWrapper(ctx, name, sim, core, plan, opts)
}

// verifyWrapper drives the wrapper bench's two sessions on a compiled xtop
// stack, comparing the golden lane against every expectation.
func verifyWrapper(ctx context.Context, name string, sim *netlist.CompiledSim, core *testinfo.Core,
	plan wrapper.Plan, opts Options) (EquivResult, *pattern.ATPG, error) {
	res := EquivResult{Name: name, Gates: sim.GateCount(), Sessions: 2}
	atpg, err := pattern.NewATPG(core)
	if err != nil {
		return res, nil, err
	}
	wb := newWrapBench(sim, core, plan, atpg)
	mmCap := opts.maxMismatches()
	cycles, err := wb.drive(ctx, sim, func(_, cycle int, pin string, got uint64, want bool) bool {
		res.check(cycle, pin, goldenBit(got), want, mmCap)
		return len(res.Mismatches) < mmCap
	})
	if err != nil {
		return res, nil, err
	}
	if err := ctx.Err(); err != nil {
		return res, nil, fmt.Errorf("xcheck: verify %s: %w", name, err)
	}
	res.Cycles = cycles
	if res.Checks == 0 {
		res.Notes = append(res.Notes, "scan program produced no expectations")
	}
	res.finish()
	return res, atpg, nil
}
