// Package ate models the external tester and the device under test at the
// cycle level.  The Chip type is a behavioural model of the DFT-inserted
// SOC: wrapped cores (wrapper chains, capture logic), the TAM routing of
// the active session, the functional-test pin multiplexing, and the
// on-chip BIST occupancy.  Run applies a translated chip-level program
// (package pattern) to the chip, compares every expected value, and counts
// tester cycles — the quantity the paper reports as test time.
//
// Because the chip model and the ATPG substitute share the same core
// models, a correct scheduler + wrapper + translator pipeline produces zero
// mismatches; any injected defect (perturbed core logic, stuck TAM wire) or
// any translation bug produces nonzero mismatches.  That is the end-to-end
// verification of the Fig. 1 flow.
package ate

import (
	"fmt"

	"steac/internal/pattern"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// Option configures defect injection on the chip model.
type Option func(*Chip)

// WithCoreDefect perturbs the named core's logic (a manufacturing defect in
// the core): captures and functional responses diverge from the ATPG's
// expectations.
func WithCoreDefect(core string) Option {
	return func(c *Chip) { c.defectCore[core] = true }
}

// WithStuckTamWire forces chip TAM output wire w to 0.
func WithStuckTamWire(w int) Option {
	return func(c *Chip) { c.stuckWire = w }
}

// WithOpenInterconnect breaks glue wire i (the sink input floats low).
func WithOpenInterconnect(i int) Option {
	return func(c *Chip) { c.openWires[i] = true }
}

// WithBridgedInterconnects shorts glue wires i and j (wired-AND bridge:
// both sinks see the AND of the two drivers).
func WithBridgedInterconnects(i, j int) Option {
	return func(c *Chip) { c.bridges = append(c.bridges, [2]int{i, j}) }
}

// Chip is the behavioural DFT-inserted SOC.
type Chip struct {
	prog   *pattern.Program
	models map[string]*pattern.CoreModel

	defectCore map[string]bool
	stuckWire  int
	openWires  map[int]bool
	bridges    [][2]int

	session     int
	layout      pattern.SessionLayout
	lanes       []*chipLane // indexed like layout.Chains
	glue        []glueWire  // an EXTEST session's interconnects, indexed like Extest.Wires
	driven      []bool      // EXTEST capture scratch: each glue wire's value
	funcLanes   []*chipFuncLane
	cycleInSess int

	tamOut, funcOut []uint64 // Step's output words
}

// chipLane is one chain lane of the active session with everything Step
// needs resolved once, in StartSession.  A scan lane captures its own
// core; the lanes of an EXTEST session capture together (captureGlue)
// and carry no core model.
type chipLane struct {
	lane      pattern.ChainLane
	chains    [][]bool
	model     *pattern.CoreModel
	chainOff  []int  // per core chain: offset into the model's state vector
	pi, state []bool // capture scratch
}

// glueWire is one EXTEST interconnect resolved to its boundary cells: the
// source out-cell that drives it and the sink in-cell that captures it.
type glueWire struct {
	from, to *bool
	open     bool
}

type chipFuncLane struct {
	lane     pattern.FuncLane
	model    *pattern.CoreModel
	machine  uint64
	nPI, nPO int
	inBuf    []uint64 // the current window's PIs, packed
	poLatch  []uint64 // the last step's POs, packed (0 before the first)
}

// NewChip builds the chip for a translated program.  Core models are
// derived from the cores' test information, exactly like the ATPG's.
func NewChip(prog *pattern.Program, cores []*testinfo.Core, opts ...Option) *Chip {
	c := &Chip{
		prog:       prog,
		models:     make(map[string]*pattern.CoreModel),
		defectCore: make(map[string]bool),
		stuckWire:  -1,
		openWires:  make(map[int]bool),
		session:    -1,
		tamOut:     make([]uint64, pattern.Words(prog.TamWidth)),
		funcOut:    make([]uint64, pattern.Words(prog.FuncBus)),
	}
	for _, core := range cores {
		c.models[core.Name] = pattern.NewCoreModel(core)
	}
	for _, o := range opts {
		o(c)
	}
	// A defective core's logic differs: its model runs on a perturbed
	// seed.
	for name := range c.defectCore {
		if m, ok := c.models[name]; ok {
			c.models[name] = m.Reseeded(m.Seed() ^ 0xDEADBEEF)
		}
	}
	return c
}

// StartSession configures the chip for session i (the controller decodes
// the session select and re-routes the TAM; wrapper chains reset to 0).
func (c *Chip) StartSession(i int) error {
	if i < 0 || i >= len(c.prog.Sessions) {
		return fmt.Errorf("ate: session %d of %d", i, len(c.prog.Sessions))
	}
	c.session = i
	c.layout = c.prog.Sessions[i]
	c.cycleInSess = 0
	ex := c.layout.Extest
	c.lanes = nil
	for _, lane := range c.layout.Chains {
		l := &chipLane{lane: lane, chains: planChains(lane.Plan)}
		if ex == nil {
			l.model = c.models[lane.Core.Name]
			l.chainOff = coreChainOffsets(lane.Core)
			l.pi = make([]bool, lane.Core.PIs)
			l.state = make([]bool, l.model.StateBits())
		}
		c.lanes = append(c.lanes, l)
	}
	c.glue = nil
	if ex != nil {
		if err := c.resolveGlue(ex); err != nil {
			return err
		}
	}
	c.funcLanes = nil
	for _, lane := range c.layout.Func {
		model := c.models[lane.Core.Name]
		c.funcLanes = append(c.funcLanes, &chipFuncLane{
			lane:    lane,
			model:   model,
			machine: model.FuncReset(),
			nPI:     lane.Core.PIs,
			nPO:     lane.Core.POs,
			inBuf:   make([]uint64, pattern.Words(lane.Core.PIs)),
			poLatch: make([]uint64, pattern.Words(lane.Core.POs)),
		})
	}
	return nil
}

// planChains builds a wrapper plan's chains, all cells 0.
func planChains(plan wrapper.Plan) [][]bool {
	chs := make([][]bool, len(plan.Chains))
	for ci, ch := range plan.Chains {
		chs[ci] = make([]bool, ch.Length())
	}
	return chs
}

// Step applies one tester cycle and returns the chip's observed outputs,
// packed like the cycle's buses.  The returned words are the chip's own
// buffers, valid until the next Step: the tester compares them in place,
// and a caller that keeps them must copy.
func (c *Chip) Step(cyc *pattern.Cycle) (tamOut, funcOut []uint64) {
	tamOut, funcOut = c.tamOut, c.funcOut
	clear(tamOut)
	clear(funcOut)

	glue := false
	for i, l := range c.lanes {
		switch cyc.Actions[i] {
		case pattern.ActShift:
			shiftLane(l.chains, l.lane.WireLo, cyc, tamOut)
		case pattern.ActCapture:
			if c.layout.Extest != nil {
				glue = true // one capture for the whole chip, below
			} else {
				l.capture()
			}
		}
	}
	if glue {
		c.captureGlue()
	}

	for _, fl := range c.funcLanes {
		c.funcCycle(fl, cyc, funcOut)
	}

	if c.stuckWire >= 0 && c.stuckWire < c.prog.TamWidth {
		tamOut[c.stuckWire/64] &^= 1 << (c.stuckWire % 64)
	}
	c.cycleInSess++
	return tamOut, funcOut
}

// shiftLane shifts every chain of a lane one cell: chain ci takes its
// input from TAM wire wireLo+ci and drives its last cell onto that wire.
func shiftLane(chains [][]bool, wireLo int, cyc *pattern.Cycle, tamOut []uint64) {
	for ci, chain := range chains {
		if len(chain) == 0 {
			continue
		}
		wire := wireLo + ci
		if chain[len(chain)-1] {
			tamOut[wire/64] |= 1 << (wire % 64)
		}
		copy(chain[1:], chain[:len(chain)-1])
		chain[0] = cyc.TamIn.Level(wire)
	}
}

// capture performs the update+capture cycle of one wrapped core: in-cells
// drive the core PIs, the core logic computes, segments take the next scan
// state, out-cells take the POs, in-cells capture the quiescent chip pins.
func (l *chipLane) capture() {
	lane, chs, model, chainOff := l.lane, l.chains, l.model, l.chainOff
	core := lane.Core
	pi, state := l.pi, l.state

	piIdx := 0
	for ci, ch := range lane.Plan.Chains {
		pos := 0
		for k := 0; k < ch.InCells; k++ {
			pi[piIdx] = chs[ci][pos]
			piIdx++
			pos++
		}
		for _, cci := range ch.CoreChains {
			l := core.ScanChains[cci].Length
			copy(state[chainOff[cci]:chainOff[cci]+l], chs[ci][pos:pos+l])
			pos += l
		}
	}

	next, po := model.Capture(state, pi)

	poIdx := 0
	for ci, ch := range lane.Plan.Chains {
		pos := 0
		for k := 0; k < ch.InCells; k++ {
			chs[ci][pos] = false // chip-side functional pins held quiet
			pos++
		}
		for _, cci := range ch.CoreChains {
			l := core.ScanChains[cci].Length
			copy(chs[ci][pos:pos+l], next[chainOff[cci]:chainOff[cci]+l])
			pos += l
		}
		for k := 0; k < ch.OutCells; k++ {
			chs[ci][pos] = po[poIdx]
			poIdx++
			pos++
		}
	}
}

func coreChainOffsets(core *testinfo.Core) []int {
	offs := make([]int, len(core.ScanChains))
	off := 0
	for i, ch := range core.ScanChains {
		offs[i] = off
		off += ch.Length
	}
	return offs
}

// funcCycle implements the functional-test pin multiplexing: ingest this
// cycle's input slots, step the core machine when the last PI slot of the
// window arrives, and present output slots from the PO latch.  The slot
// window [lo, hi) indexes the pattern's PIs then POs, as the translator
// lays them out.
func (c *Chip) funcCycle(fl *chipFuncLane, cyc *pattern.Cycle, funcOut []uint64) {
	lane := fl.lane
	local := c.cycleInSess - lane.Start
	if local < 0 || local >= lane.Cycles {
		return
	}
	j := local % lane.CPP
	lo, hi := j*lane.Slots, (j+1)*lane.Slots
	if n := min(hi, fl.nPI) - lo; n > 0 {
		pattern.CopyBits(fl.inBuf, lo, cyc.Func.Val, lane.SlotLo, n)
	}
	// The machine steps when the window holds the last PI slot (or, for a
	// core without PIs, on the pattern's first cycle).
	if (fl.nPI > 0 && lo < fl.nPI && fl.nPI <= hi) || (fl.nPI == 0 && j == 0) {
		fl.machine = fl.model.FuncStep(fl.machine, fl.inBuf, fl.poLatch)
	}
	if from, to := max(lo, fl.nPI), min(hi, fl.nPI+fl.nPO); from < to {
		pattern.CopyBits(funcOut, lane.SlotLo+from-lo, fl.poLatch, from-fl.nPI, to-from)
	}
}

// resolveGlue locates every EXTEST interconnect's source out-cell and sink
// in-cell in the session's chains, once per session.
func (c *Chip) resolveGlue(ex *pattern.ExtestLane) error {
	cell := func(core string, out bool, k int) *bool {
		for _, l := range c.lanes {
			if l.lane.Core.Name == core {
				if ci, pos, ok := l.lane.Plan.BoundaryCell(out, k); ok {
					return &l.chains[ci][pos]
				}
			}
		}
		return nil
	}
	c.glue = make([]glueWire, len(ex.Wires))
	c.driven = make([]bool, len(ex.Wires))
	for wi, w := range ex.Wires {
		g := glueWire{from: cell(w.FromCore, true, w.FromPO), to: cell(w.ToCore, false, w.ToPI), open: c.openWires[wi]}
		if g.from == nil || g.to == nil {
			return fmt.Errorf("ate: interconnect %d has no boundary cell in session %d", wi, c.session)
		}
		c.glue[wi] = g
	}
	return nil
}

// captureGlue is an EXTEST session's update+capture, once for the whole
// chip: each sink in-cell takes the value its glue wire carries from the
// source out-cell (through any injected open or bridge), every other
// boundary cell captures the quiet level 0, and core segments hold.
func (c *Chip) captureGlue() {
	for wi, g := range c.glue {
		c.driven[wi] = *g.from && !g.open
	}
	for _, b := range c.bridges {
		v := c.driven[b[0]] && c.driven[b[1]]
		c.driven[b[0]], c.driven[b[1]] = v, v
	}
	for _, l := range c.lanes {
		for ci, ch := range l.lane.Plan.Chains {
			chain := l.chains[ci]
			clear(chain[:ch.InCells])
			clear(chain[ch.InCells+ch.ScanBits():])
		}
	}
	for wi, g := range c.glue {
		*g.to = c.driven[wi]
	}
}

// BISTSatisfied reports whether the current session ran long enough to
// cover its BIST occupancy (the on-chip controller raises MBO once its
// groups finish; the session length must reach that point).
func (c *Chip) BISTSatisfied() bool {
	return c.cycleInSess >= c.layout.BISTCycles
}
