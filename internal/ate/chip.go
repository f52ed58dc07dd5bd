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
	extest      [][][]bool // EXTEST cores' wrapper chains, indexed like Extest.Cores
	scanLanes   []*chipScanLane
	funcLanes   []*chipFuncLane
	cycleInSess int

	tamOut, funcOut []uint64 // Step's output words
}

// chipScanLane is one scan lane of the active session with everything
// Step needs resolved once, in StartSession.
type chipScanLane struct {
	lane      pattern.ScanLane
	chains    [][]bool
	model     *pattern.CoreModel
	chainOff  []int  // per core chain: offset into the model's state vector
	pi, state []bool // capture scratch
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
	c.scanLanes = nil
	for _, lane := range c.layout.Scan {
		model := c.models[lane.Core.Name]
		c.scanLanes = append(c.scanLanes, &chipScanLane{
			lane: lane, chains: planChains(lane.Plan),
			model:    model,
			chainOff: coreChainOffsets(lane.Core),
			pi:       make([]bool, lane.Core.PIs),
			state:    make([]bool, model.StateBits()),
		})
	}
	c.extest = nil
	if ex := c.layout.Extest; ex != nil {
		for _, cl := range ex.Cores {
			c.extest = append(c.extest, planChains(cl.Plan))
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

	for i, sl := range c.scanLanes {
		switch cyc.Actions[i] {
		case pattern.ActShift:
			shiftLane(sl.chains, sl.lane.WireLo, cyc, tamOut)
		case pattern.ActCapture:
			sl.capture()
		}
	}
	if ex := c.layout.Extest; ex != nil {
		c.extestStep(ex, cyc, tamOut)
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
func (sl *chipScanLane) capture() {
	lane, chs, model, chainOff := sl.lane, sl.chains, sl.model, sl.chainOff
	core := lane.Core
	pi, state := sl.pi, sl.state

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

// extestStep handles an interconnect-test cycle: all wrapped cores shift
// their single wrapper chain together; on capture, each sink input
// boundary cell takes the value its glue wire carries (through any
// injected open or bridge defect), core-internal segments hold, and output
// cells capture the quiescent core side.
func (c *Chip) extestStep(ex *pattern.ExtestLane, cyc *pattern.Cycle, tamOut []uint64) {
	capture := false
	for i, cl := range ex.Cores {
		switch cyc.Actions[i] {
		case pattern.ActShift:
			shiftLane(c.extest[i], cl.WireLo, cyc, tamOut)
		case pattern.ActCapture:
			capture = true
		}
	}
	if !capture {
		return
	}
	// Gather driven values from the source out-cells (the update latches
	// hold the loaded bits after the controller's UPDATE pulse).
	driven := make([]bool, len(ex.Wires))
	for wi, w := range ex.Wires {
		driven[wi] = c.extestCellValue(ex, w.FromCore, false, w.FromPO)
	}
	// Defects.
	for wi := range driven {
		if c.openWires[wi] {
			driven[wi] = false
		}
	}
	for _, b := range c.bridges {
		v := driven[b[0]] && driven[b[1]]
		driven[b[0]], driven[b[1]] = v, v
	}
	// Sink capture: in-cells take their wire's value (default quiet 0),
	// out-cells capture the idle core side (0); segments hold.
	sink := make(map[string]map[int]bool)
	for wi, w := range ex.Wires {
		if sink[w.ToCore] == nil {
			sink[w.ToCore] = make(map[int]bool)
		}
		sink[w.ToCore][w.ToPI] = driven[wi]
	}
	for i, cl := range ex.Cores {
		piIdx, poIdx := 0, 0
		for ci, ch := range cl.Plan.Chains {
			chain := c.extest[i][ci]
			pos := 0
			for k := 0; k < ch.InCells; k++ {
				chain[pos] = sink[cl.Core.Name][piIdx]
				piIdx++
				pos++
			}
			pos += ch.ScanBits() // core segments hold
			for k := 0; k < ch.OutCells; k++ {
				chain[pos] = false
				poIdx++
				pos++
			}
		}
		_ = poIdx
	}
}

// extestCellValue reads a boundary cell's current content: inCell selects
// the input-cell region (PI index k), otherwise the output-cell region (PO
// index k), walking the sequential cell allocation across the core's
// wrapper chains.
func (c *Chip) extestCellValue(ex *pattern.ExtestLane, core string, inCell bool, k int) bool {
	for i, cl := range ex.Cores {
		if cl.Core.Name != core {
			continue
		}
		idx := 0
		for ci, ch := range cl.Plan.Chains {
			chain := c.extest[i][ci]
			n := ch.OutCells
			base := ch.InCells + ch.ScanBits()
			if inCell {
				n = ch.InCells
				base = 0
			}
			if k < idx+n {
				return chain[base+(k-idx)]
			}
			idx += n
		}
	}
	return false
}

// BISTSatisfied reports whether the current session ran long enough to
// cover its BIST occupancy (the on-chip controller raises MBO once its
// groups finish; the session length must reach that point).
func (c *Chip) BISTSatisfied() bool {
	return c.cycleInSess >= c.layout.BISTCycles
}
