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
	chains      map[string][][]bool // extest cores' wrapper chains
	scanLanes   []*chipScanLane
	funcLanes   []*chipFuncLane
	cycleInSess int

	tamOut, funcOut []bool // Step's output buffers
}

// chipScanLane is one scan lane of the active session with everything
// Step needs resolved once, in StartSession.
type chipScanLane struct {
	lane     pattern.ScanLane
	chains   [][]bool
	model    *pattern.CoreModel
	chainOff []int // per core chain: offset into the model's state vector
}

type chipFuncLane struct {
	lane    pattern.FuncLane
	model   *pattern.CoreModel
	machine uint64
	inBuf   []bool
	poLatch []bool
	window  int
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
		tamOut:     make([]bool, prog.TamWidth),
		funcOut:    make([]bool, prog.FuncBus),
	}
	for _, core := range cores {
		c.models[core.Name] = pattern.NewCoreModel(core)
	}
	for _, o := range opts {
		o(c)
	}
	// A defective core's logic differs: rebuild its model with a
	// perturbed seed.
	for name := range c.defectCore {
		if m, ok := c.models[name]; ok {
			bad := *m
			bad.Seed ^= 0xDEADBEEF
			c.models[name] = &bad
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
	c.chains = make(map[string][][]bool)
	c.scanLanes = nil
	for _, lane := range c.layout.Scan {
		chs := make([][]bool, len(lane.Plan.Chains))
		for ci, ch := range lane.Plan.Chains {
			chs[ci] = make([]bool, ch.Length())
		}
		c.scanLanes = append(c.scanLanes, &chipScanLane{
			lane: lane, chains: chs,
			model:    c.models[lane.Core.Name],
			chainOff: coreChainOffsets(lane.Core),
		})
	}
	if ex := c.layout.Extest; ex != nil {
		for _, cl := range ex.Cores {
			chs := make([][]bool, len(cl.Plan.Chains))
			for ci, ch := range cl.Plan.Chains {
				chs[ci] = make([]bool, ch.Length())
			}
			c.chains[cl.Core.Name] = chs
		}
	}
	c.funcLanes = nil
	for _, lane := range c.layout.Func {
		model := c.models[lane.Core.Name]
		c.funcLanes = append(c.funcLanes, &chipFuncLane{
			lane:    lane,
			model:   model,
			machine: model.FuncReset(),
			inBuf:   make([]bool, lane.Core.PIs),
			window:  -1,
		})
	}
	return nil
}

// Step applies one tester cycle and returns the chip's observed outputs.
// The returned slices are the chip's own buffers: they are valid until the
// next Step, so a caller that keeps them must copy.
func (c *Chip) Step(cyc *pattern.Cycle) (tamOut, funcOut []bool) {
	tamOut, funcOut = c.tamOut, c.funcOut
	clear(tamOut)
	clear(funcOut)

	for _, sl := range c.scanLanes {
		chs := sl.chains
		switch cyc.Actions[sl.lane.Core.Name] {
		case pattern.ActShift:
			for ci := range chs {
				wire := sl.lane.WireLo + ci
				chain := chs[ci]
				if len(chain) == 0 {
					continue
				}
				tamOut[wire] = chain[len(chain)-1]
				in := cyc.TamIn[wire].Bool()
				copy(chain[1:], chain[:len(chain)-1])
				chain[0] = in
			}
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

	if c.stuckWire >= 0 && c.stuckWire < len(tamOut) {
		tamOut[c.stuckWire] = false
	}
	c.cycleInSess++
	return tamOut, funcOut
}

// capture performs the update+capture cycle of one wrapped core: in-cells
// drive the core PIs, the core logic computes, segments take the next scan
// state, out-cells take the POs, in-cells capture the quiescent chip pins.
func (sl *chipScanLane) capture() {
	lane, chs, model, chainOff := sl.lane, sl.chains, sl.model, sl.chainOff
	core := lane.Core
	pi := make([]bool, core.PIs)
	state := make([]bool, model.StateBits())

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
// window arrives, and present output slots from the PO latch.
func (c *Chip) funcCycle(fl *chipFuncLane, cyc *pattern.Cycle, funcOut []bool) {
	lane := fl.lane
	local := c.cycleInSess - lane.Start
	if local < 0 || local >= lane.Cycles {
		return
	}
	t, j := local/lane.CPP, local%lane.CPP
	if t != fl.window {
		fl.window = t
	}
	nPI := lane.Core.PIs
	model := fl.model
	lastPISlot := nPI - 1
	computes := false
	for s := 0; s < lane.Slots; s++ {
		slotIdx := j*lane.Slots + s
		if slotIdx < nPI {
			fl.inBuf[slotIdx] = cyc.Func[lane.SlotLo+s].Bool()
			if slotIdx == lastPISlot {
				computes = true
			}
		}
	}
	if nPI == 0 && j == 0 {
		computes = true
	}
	if computes {
		fl.machine, fl.poLatch = model.FuncStep(fl.machine, fl.inBuf)
	}
	for s := 0; s < lane.Slots; s++ {
		slotIdx := j*lane.Slots + s
		if slotIdx >= nPI && slotIdx < nPI+lane.Core.POs && fl.poLatch != nil {
			funcOut[lane.SlotLo+s] = fl.poLatch[slotIdx-nPI]
		}
	}
}

// extestStep handles an interconnect-test cycle: all wrapped cores shift
// their single wrapper chain together; on capture, each sink input
// boundary cell takes the value its glue wire carries (through any
// injected open or bridge defect), core-internal segments hold, and output
// cells capture the quiescent core side.
func (c *Chip) extestStep(ex *pattern.ExtestLane, cyc *pattern.Cycle, tamOut []bool) {
	capture := false
	for _, cl := range ex.Cores {
		switch cyc.Actions[cl.Core.Name] {
		case pattern.ActShift:
			for ci, chain := range c.chains[cl.Core.Name] {
				if len(chain) == 0 {
					continue
				}
				wire := cl.WireLo + ci
				tamOut[wire] = chain[len(chain)-1]
				in := cyc.TamIn[wire].Bool()
				copy(chain[1:], chain[:len(chain)-1])
				chain[0] = in
			}
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
	for _, cl := range ex.Cores {
		piIdx, poIdx := 0, 0
		for ci, ch := range cl.Plan.Chains {
			chain := c.chains[cl.Core.Name][ci]
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
	for _, cl := range ex.Cores {
		if cl.Core.Name != core {
			continue
		}
		idx := 0
		for ci, ch := range cl.Plan.Chains {
			chain := c.chains[core][ci]
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
