package pattern

import (
	"fmt"

	"steac/internal/obs"
	"steac/internal/sched"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// Observability.  Stream's per-cycle loop counts locally and publishes one
// total per call — the translator streams millions of cycles and must not
// touch a shared cache line per cycle.
var (
	obsSpanTranslate   = obs.GetSpan("pattern.translate")
	obsSpanStream      = obs.GetSpan("pattern.stream")
	obsTranslations    = obs.GetCounter("pattern.translations")
	obsLanesTranslated = obs.GetCounter("pattern.lanes_translated")
	obsCyclesStreamed  = obs.GetCounter("pattern.cycles_streamed")
)

// CoreAction is the per-core scan control state in one chip cycle (the
// decoded form of the controller's gated SE/capture signals).
type CoreAction byte

// Actions.
const (
	ActIdle CoreAction = iota
	ActShift
	ActCapture
)

// Cycle is one chip-level tester cycle: drive values, expectations and
// the scan controls.  The four buses are carved from one backing array,
// so every cycle starts all-X with a single clear.
type Cycle struct {
	TamIn, TamExpect, Func, FuncExpect Bus
	// Actions holds each chain lane's scan control, indexed like the
	// session's Chains; idle lanes read ActIdle.
	Actions []CoreAction
	planes  []uint64
}

// newCycle allocates an all-X cycle of the given bus widths carrying
// lanes scan controls.
func newCycle(tamWidth, funcBus, lanes int) *Cycle {
	tw, fw := Words(tamWidth), Words(funcBus)
	c := &Cycle{planes: make([]uint64, 4*(tw+fw)), Actions: make([]CoreAction, lanes)}
	rest := c.planes
	cut := func(n, w int) Bus {
		b := Bus{Val: rest[:w:w], Care: rest[w : 2*w : 2*w], n: n}
		rest = rest[2*w:]
		return b
	}
	c.TamIn, c.TamExpect = cut(tamWidth, tw), cut(tamWidth, tw)
	c.Func, c.FuncExpect = cut(funcBus, fw), cut(funcBus, fw)
	return c
}

// reset returns the cycle to all-X with every lane idle.
func (c *Cycle) reset() {
	clear(c.planes)
	clear(c.Actions)
}

// ChainLane is one wrapped core's wrapper chains on a range of the
// session's TAM wires.  Scan and EXTEST sessions shift through the same
// lane: each pattern shifts Depth cycles — driving its load image and
// unloading the previous pattern's expect image — then captures, and a
// final Depth-cycle unload ends the lane.
type ChainLane struct {
	Core   *testinfo.Core
	Plan   wrapper.Plan
	WireLo int
	// Start is the lane's offset from the session origin (nonzero in
	// packed non-session schedules).
	Start int
	// Depth is the shift cycles per pattern: the plan's longest chain
	// for a scan lane, the longest chain of the session for EXTEST.
	Depth    int
	Patterns int
	// Cycles is (Depth+1)·Patterns + Depth.
	Cycles int
	// Test names the test that owns the lane's wires ("<core>.scan" or
	// "chip.extest"), to which the tester attributes their mismatches.
	Test string
	// fill renders pattern t into per-chain load and expect images.
	fill func(t int, load, expect [][]Bit) error
}

// NewScanLane is the lane that applies src's scan patterns through plan,
// on TAM wires from wireLo, starting start cycles into the session.
func NewScanLane(core *testinfo.Core, src Source, plan wrapper.Plan, wireLo, start int) ChainLane {
	p := src.ScanCount()
	return ChainLane{
		Core: core, Plan: plan, WireLo: wireLo, Start: start,
		Depth: plan.MaxLength(), Patterns: p, Cycles: plan.ScanTestCycles(p),
		Test: core.Name + ".scan",
		fill: func(t int, load, expect [][]Bit) error {
			sp, err := src.ScanPattern(t)
			if err != nil {
				return err
			}
			chainImages(plan, sp, load, expect)
			return nil
		},
	}
}

// FuncLane is one functional test's share of a session: its slot range on
// the functional pin bus and its start offset (after the same core's scan).
type FuncLane struct {
	Core   *testinfo.Core
	Source Source
	SlotLo int
	Slots  int
	Start  int
	CPP    int
	// Cycles is patterns·CPP.
	Cycles int
}

// SessionLayout is the physical configuration of one test session: it is
// shared verbatim between the pattern translator and the chip model (it is
// what the inserted DFT hardware implements).
type SessionLayout struct {
	Index  int
	Cycles int
	// Chains holds the session's wrapper-chain lanes: its scan cores', or
	// in an EXTEST session every wrapped core's.
	Chains []ChainLane
	Func   []FuncLane
	// BISTCycles is the serial BIST occupancy padded into this session.
	BISTCycles int
	// Extest, when set, makes this an interconnect-test session: Chains
	// are its Cores, and there are no functional lanes.
	Extest *ExtestLane
}

// ActionNames names the cores whose scan controls this session's cycles
// carry, in Cycle.Actions order: the cores of its chain lanes.
func (l *SessionLayout) ActionNames() []string {
	var names []string
	for _, lane := range l.Chains {
		names = append(names, lane.Core.Name)
	}
	return names
}

// Program is the chip-level test program for a whole schedule.
type Program struct {
	TamWidth int
	FuncBus  int
	Sessions []SessionLayout
}

// TotalCycles sums the session lengths.
func (p *Program) TotalCycles() int {
	total := 0
	for _, s := range p.Sessions {
		total += s.Cycles
	}
	return total
}

// Translate lifts a schedule to the chip level: it assigns TAM wires and
// functional-bus slots to every placement and returns the program, whose
// cycle stream the ATE applies.  This is Fig. 1's "Wrapper Pattern
// Translation" + "System Pattern Translation" combined: core patterns are
// re-expressed as wrapper-chain load/unload streams and mapped onto chip
// pins.
func Translate(s *sched.Schedule, sources map[string]Source, res sched.Resources) (*Program, error) {
	tm := obsSpanTranslate.Start()
	defer tm.Stop()
	prog := &Program{FuncBus: res.FuncPins}
	for _, sess := range s.Sessions {
		layout := SessionLayout{Index: sess.Index, Cycles: sess.Cycles}
		// Pins are reused over time: placements that do not overlap may
		// share TAM wires and functional slots (the non-session packer
		// relies on this; within a session placements mostly overlap).
		wires := newAllocator((res.TestPins) / 2)
		slots := newAllocator(res.FuncPins)
		maxWire := 0
		for _, pl := range sess.Placements {
			switch pl.Test.Kind {
			case sched.ScanKind:
				src, ok := sources[pl.Test.Core.Name]
				if !ok {
					return nil, fmt.Errorf("pattern: no ATPG source for %s", pl.Test.Core.Name)
				}
				plan, err := wrapper.DesignChains(pl.Test.Core, pl.Width, res.Partitioner)
				if err != nil {
					return nil, err
				}
				if got := plan.ScanTestCycles(src.ScanCount()); got != pl.Cycles {
					return nil, fmt.Errorf("pattern: %s scan plan %d cycles vs scheduled %d",
						pl.Test.ID, got, pl.Cycles)
				}
				lo, err := wires.alloc(pl.Width, pl.Start, pl.Cycles)
				if err != nil {
					return nil, fmt.Errorf("pattern: %s: %w", pl.Test.ID, err)
				}
				layout.Chains = append(layout.Chains, NewScanLane(pl.Test.Core, src, plan, lo, pl.Start))
				if lo+pl.Width > maxWire {
					maxWire = lo + pl.Width
				}
			case sched.FuncKind:
				src, ok := sources[pl.Test.Core.Name]
				if !ok {
					return nil, fmt.Errorf("pattern: no ATPG source for %s", pl.Test.Core.Name)
				}
				if pl.FuncPins <= 0 {
					return nil, fmt.Errorf("pattern: %s granted no functional pins", pl.Test.ID)
				}
				need := pl.Test.NeedFuncPins
				cpp := (need + pl.FuncPins - 1) / pl.FuncPins
				if got := src.FuncCount() * cpp; got != pl.Cycles {
					return nil, fmt.Errorf("pattern: %s functional %d cycles vs scheduled %d",
						pl.Test.ID, got, pl.Cycles)
				}
				lo, err := slots.alloc(pl.FuncPins, pl.Start, pl.Cycles)
				if err != nil {
					return nil, fmt.Errorf("pattern: %s: %w", pl.Test.ID, err)
				}
				layout.Func = append(layout.Func, FuncLane{
					Core: pl.Test.Core, Source: src,
					SlotLo: lo, Slots: pl.FuncPins, Start: pl.Start,
					CPP: cpp, Cycles: pl.Cycles,
				})
			case sched.BISTKind:
				if end := pl.End(); end > layout.BISTCycles {
					layout.BISTCycles = end
				}
			case sched.ExtestKind:
				// Attached after translation via AttachExtest.
			}
		}
		if maxWire > prog.TamWidth {
			prog.TamWidth = maxWire
		}
		prog.Sessions = append(prog.Sessions, layout)
		obsLanesTranslated.Add(int64(len(layout.Chains) + len(layout.Func)))
	}
	obsTranslations.Add(1)
	return prog, nil
}

// allocator hands out contiguous pin/slot ranges with time-based reuse.
type allocator struct {
	size int
	busy []struct{ lo, n, start, end int }
}

func newAllocator(size int) *allocator { return &allocator{size: size} }

// alloc reserves n contiguous units for [start, start+dur): two
// reservations may share units only when their time windows are disjoint.
// Requests arrive in placement order, which is NOT start order (a schedule
// lists a core's late functional test before another core's early one), so
// expired-looking reservations must stay on the books — dropping them when
// a later-starting request arrives would hand their units to an
// earlier-starting request that does overlap them.
func (a *allocator) alloc(n, start, dur int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("pattern: allocation of %d units", n)
	}
	end := start + dur
	for lo := 0; lo+n <= a.size; lo++ {
		free := true
		for _, b := range a.busy {
			if lo < b.lo+b.n && b.lo < lo+n && start < b.end && b.start < end {
				free = false
				lo = b.lo + b.n - 1 // skip past this reservation
				break
			}
		}
		if free {
			a.busy = append(a.busy, struct{ lo, n, start, end int }{lo, n, start, end})
			return lo, nil
		}
	}
	return 0, fmt.Errorf("pattern: no %d contiguous units free of %d", n, a.size)
}

// laneState is the translator's per-chain-lane streaming state.  Each
// pattern's images are filled once, on entering it, into buffers the lane
// reuses: its expect images become the next pattern's prev and, for the
// last pattern, the final unload's.
type laneState struct {
	lane ChainLane
	idx  int // the lane's index in the session (its Cycle.Actions slot)
	// load is the current pattern's per-chain load image (what shifts
	// in), expect the chain contents expected after its capture, and prev
	// the previous pattern's expect (what unloads meanwhile).
	load, expect, prev [][]Bit
}

func newLaneState(lane ChainLane, idx int) *laneState {
	return &laneState{lane: lane, idx: idx,
		load: chainBuffers(lane.Plan), expect: chainBuffers(lane.Plan), prev: chainBuffers(lane.Plan)}
}

// chainBuffers allocates one image per wrapper chain (index 0 = cell
// nearest the chip's TAM-in pin), covering the cells that carry pattern
// data: the boundary cells and the core-chain segments (a soft core's
// synthetic segments carry none).
func chainBuffers(plan wrapper.Plan) [][]Bit {
	imgs := make([][]Bit, len(plan.Chains))
	for ci, ch := range plan.Chains {
		n := ch.InCells + ch.OutCells
		for _, bits := range ch.SegmentBits[:len(ch.CoreChains)] {
			n += bits
		}
		imgs[ci] = make([]Bit, n)
	}
	return imgs
}

// chainImages renders a scan pattern into per-wrapper-chain load and
// expect images.
//
// load: in-cells carry the PI stimulus (allocated sequentially across
// chains, matching wrapper.Generate), segments carry the chain load data,
// out-cells are don't-care.  expect: the post-capture content — the
// in-cells captured the quiescent chip-side pins (0), segments hold the
// expected next state, out-cells hold the expected POs.
func chainImages(plan wrapper.Plan, p ScanPattern, load, expect [][]Bit) {
	piIdx, poIdx := 0, 0
	for ci, ch := range plan.Chains {
		li, ei := load[ci], expect[ci]
		pos := 0
		for k := 0; k < ch.InCells; k++ {
			li[pos], ei[pos] = FromBool(p.PI[piIdx]), B0 // captured chip-side quiescent level
			piIdx++
			pos++
		}
		for _, cc := range ch.CoreChains {
			for k := range p.Load[cc] {
				li[pos], ei[pos] = FromBool(p.Load[cc][k]), FromBool(p.ExpectUnload[cc][k])
				pos++
			}
		}
		for k := 0; k < ch.OutCells; k++ {
			li[pos], ei[pos] = BX, FromBool(p.ExpectPO[poIdx])
			poIdx++
			pos++
		}
	}
}

// funcState streams a functional lane pattern by pattern (pull-based, no
// materialization: the source's own iterator supplies the sequence).
type funcState struct {
	lane     FuncLane
	next     func() (FuncPattern, bool)
	nPI, nPO int
	// slots is the current pattern as the lane's slot sequence: PI bits
	// 0..nPI-1, then expected PO bits.  Cycle j of the pattern carries
	// slots [j·Slots, (j+1)·Slots).
	slots   []uint64
	curIdx  int
	haveCur bool
}

func newFuncState(lane FuncLane) *funcState {
	return &funcState{
		lane:   lane,
		next:   lane.Source.FuncStream(),
		nPI:    lane.Core.PIs,
		nPO:    lane.Core.POs,
		slots:  make([]uint64, Words(lane.Core.PIs+lane.Core.POs)),
		curIdx: -1,
	}
}

// advance pulls the next functional pattern in sequence.
func (fs *funcState) advance() bool {
	p, ok := fs.next()
	if !ok {
		fs.haveCur = false
		return false
	}
	CopyBits(fs.slots, 0, p.PI, 0, fs.nPI)
	CopyBits(fs.slots, fs.nPI, p.ExpectPO, 0, fs.nPO)
	fs.haveCur = true
	return true
}

// Stream generates the chip-level cycle sequence of one session, calling fn
// for every cycle; fn returning false aborts.  The emitted cycle count
// always equals layout.Cycles: lanes that finish early idle, and BIST-only
// padding idles everything (the on-chip BIST keeps running during those
// cycles).
func (prog *Program) Stream(layout SessionLayout, fn func(c int, cyc *Cycle) bool) error {
	tm := obsSpanStream.Start()
	defer tm.Stop()
	emitted := 0
	defer func() { obsCyclesStreamed.Add(int64(emitted)) }()
	lanes := make([]*laneState, len(layout.Chains))
	for i, l := range layout.Chains {
		lanes[i] = newLaneState(l, i)
	}
	funcs := make([]*funcState, len(layout.Func))
	for i, l := range layout.Func {
		funcs[i] = newFuncState(l)
	}

	cyc := newCycle(prog.TamWidth, prog.FuncBus, len(layout.Chains))
	for c := 0; c < layout.Cycles; c++ {
		cyc.reset()

		for _, ls := range lanes {
			if err := ls.emit(c, cyc); err != nil {
				return err
			}
		}
		for _, fs := range funcs {
			fs.emit(c, cyc)
		}
		emitted++
		if !fn(c, cyc) {
			return nil
		}
	}
	return nil
}

// emit drives one cycle of the lane: pattern t = c/(Depth+1) shifts for
// its first Depth cycles and captures on the last; t = Patterns is the
// final unload.
func (ls *laneState) emit(cycleIdx int, cyc *Cycle) error {
	lane := &ls.lane
	L, p := lane.Depth, lane.Patterns
	c := cycleIdx - lane.Start
	if c < 0 || c >= lane.Cycles || p == 0 {
		return nil
	}
	t, k := c/(L+1), c%(L+1)
	if k == 0 {
		// Entering pattern t: the images of t-1 now unload.
		ls.prev, ls.expect = ls.expect, ls.prev
		if t < p {
			if err := lane.fill(t, ls.load, ls.expect); err != nil {
				return err
			}
		}
	}
	if k == L {
		cyc.Actions[ls.idx] = ActCapture
		return nil
	}
	cyc.Actions[ls.idx] = ActShift
	for ci, img := range ls.load {
		wire := lane.WireLo + ci
		// Shift-in order: after L shifts, cell j holds the input from
		// cycle L-1-j, so drive img[L-1-k]; cycles addressing beyond a
		// shorter chain's length, and the final unload, shift in 0.
		if idx := L - 1 - k; t < p && idx < len(img) {
			cyc.TamIn.Set(wire, img[idx])
		} else {
			cyc.TamIn.Set(wire, B0)
		}
		// The previous pattern unloads head-first: the cell nearest
		// TAM-out leaves first.
		if t > 0 {
			pimg := ls.prev[ci]
			if idx := len(pimg) - 1 - k; idx >= 0 {
				cyc.TamExpect.Set(wire, pimg[idx])
			}
		}
	}
	return nil
}

func (fs *funcState) emit(c int, cyc *Cycle) {
	lane := fs.lane
	local := c - lane.Start
	if local < 0 || local >= lane.Cycles {
		return
	}
	t, j := local/lane.CPP, local%lane.CPP
	if t != fs.curIdx {
		if !fs.advance() {
			return
		}
		fs.curIdx = t
	}
	if !fs.haveCur {
		return
	}
	// This cycle's slot window [lo, hi): its PI part drives the bus, its
	// PO part is expected on it.
	lo, hi := j*lane.Slots, (j+1)*lane.Slots
	if n := min(hi, fs.nPI) - lo; n > 0 {
		cyc.Func.SetField(lane.SlotLo, fs.slots, lo, n)
	}
	if from, to := max(lo, fs.nPI), min(hi, fs.nPI+fs.nPO); from < to {
		cyc.FuncExpect.SetField(lane.SlotLo+from-lo, fs.slots, from, to-from)
	}
}
