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

// Cycle is one chip-level tester cycle: drive values and expectations.
type Cycle struct {
	TamIn      []Bit
	TamExpect  []Bit
	Actions    map[string]CoreAction
	Func       []Bit
	FuncExpect []Bit
}

// ScanLane is one wrapped scan core's share of a session: its wrapper-chain
// plan and its TAM wire range.
type ScanLane struct {
	Core   *testinfo.Core
	Source Source
	Plan   wrapper.Plan
	WireLo int
	// Start is the lane's offset from the session origin (nonzero in
	// packed non-session schedules).
	Start int
	// Cycles is (L+1)·p + L for this lane.
	Cycles int
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
	Scan   []ScanLane
	Func   []FuncLane
	// BISTCycles is the serial BIST occupancy padded into this session.
	BISTCycles int
	// Extest, when set, makes this an interconnect-test session (no scan
	// or functional lanes).
	Extest *ExtestLane
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
				layout.Scan = append(layout.Scan, ScanLane{
					Core: pl.Test.Core, Source: src, Plan: plan,
					WireLo: lo, Start: pl.Start, Cycles: pl.Cycles,
				})
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
		obsLanesTranslated.Add(int64(len(layout.Scan) + len(layout.Func)))
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

// laneState is the translator's per-scan-lane streaming state.  Each
// pattern's images are built once, on entering it: its expect images
// become the next pattern's prev and, for the last pattern, the final
// unload's.
type laneState struct {
	lane ScanLane
	L    int // lane.Plan.MaxLength()
	p    int // lane.Source.ScanCount()
	// chain contents expected on the chip after the previous capture
	// (what unloads while the next pattern loads); nil before pattern 0.
	prev [][]Bit
	// current load images per chain (what we are shifting in).
	cur [][]Bit
	// chain contents expected after the current pattern's capture.
	expect [][]Bit
}

// chainImages renders a scan pattern as per-wrapper-chain content vectors
// (index 0 = cell nearest the chip's TAM-in pin).
//
// loadImage: in-cells carry the PI stimulus (allocated sequentially across
// chains, matching wrapper.Generate), segments carry the chain load data,
// out-cells are don't-care.  expectImage: the post-capture content — the
// in-cells captured the quiescent chip-side pins (0), segments hold the
// expected next state, out-cells hold the expected POs.
func chainImages(lane ScanLane, p ScanPattern) (load, expect [][]Bit) {
	piIdx, poIdx := 0, 0
	for _, ch := range lane.Plan.Chains {
		li := make([]Bit, 0, ch.Length())
		ei := make([]Bit, 0, ch.Length())
		for k := 0; k < ch.InCells; k++ {
			li = append(li, FromBool(p.PI[piIdx]))
			ei = append(ei, B0) // captured chip-side quiescent level
			piIdx++
		}
		for _, ci := range ch.CoreChains {
			for k := 0; k < len(p.Load[ci]); k++ {
				li = append(li, FromBool(p.Load[ci][k]))
				ei = append(ei, FromBool(p.ExpectUnload[ci][k]))
			}
		}
		for k := 0; k < ch.OutCells; k++ {
			li = append(li, BX)
			ei = append(ei, FromBool(p.ExpectPO[poIdx]))
			poIdx++
		}
		load = append(load, li)
		expect = append(expect, ei)
	}
	return load, expect
}

// ChainImages renders a scan pattern as per-wrapper-chain load and expect
// vectors (index 0 = cell nearest the chip's TAM-in pin), exactly as the
// translator streams them.  Gate-level cross-checkers use it to drive a
// flattened wrapper with the same images the ATE applies.
func ChainImages(lane ScanLane, p ScanPattern) (load, expect [][]Bit) {
	return chainImages(lane, p)
}

// funcState streams a functional lane pattern by pattern (pull-based, no
// materialization: the source's own iterator supplies the sequence).
type funcState struct {
	lane    FuncLane
	next    func() (FuncPattern, bool)
	cur     FuncPattern
	curIdx  int
	haveCur bool
}

func newFuncState(lane FuncLane) *funcState {
	return &funcState{
		lane:   lane,
		next:   lane.Source.FuncStream(),
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
	fs.cur = p
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
	if layout.Extest != nil {
		return prog.streamExtest(layout.Extest, fn)
	}
	lanes := make([]*laneState, len(layout.Scan))
	for i, l := range layout.Scan {
		lanes[i] = &laneState{lane: l, L: l.Plan.MaxLength(), p: l.Source.ScanCount()}
	}
	funcs := make([]*funcState, len(layout.Func))
	for i, l := range layout.Func {
		funcs[i] = newFuncState(l)
	}

	cyc := &Cycle{
		TamIn:      make([]Bit, prog.TamWidth),
		TamExpect:  make([]Bit, prog.TamWidth),
		Func:       make([]Bit, prog.FuncBus),
		FuncExpect: make([]Bit, prog.FuncBus),
		Actions:    make(map[string]CoreAction),
	}
	// Every cycle starts all-X; copying from a blank vector is a memmove.
	blank := make([]Bit, max(prog.TamWidth, prog.FuncBus))
	for i := range blank {
		blank[i] = BX
	}
	for c := 0; c < layout.Cycles; c++ {
		copy(cyc.TamIn, blank)
		copy(cyc.TamExpect, blank)
		copy(cyc.Func, blank)
		copy(cyc.FuncExpect, blank)
		clear(cyc.Actions)

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

func (ls *laneState) emit(cycleIdx int, cyc *Cycle) error {
	lane := ls.lane
	L, p := ls.L, ls.p
	c := cycleIdx - lane.Start
	if c < 0 || c >= lane.Cycles || p == 0 {
		return nil
	}
	name := lane.Core.Name
	period := L + 1
	if c < period*p {
		t, k := c/period, c%period
		if k == 0 {
			// Entering pattern t: pull its images.
			sp, err := lane.Source.ScanPattern(t)
			if err != nil {
				return err
			}
			ls.prev = ls.expect
			ls.cur, ls.expect = chainImages(lane, sp)
		}
		if k < L {
			cyc.Actions[name] = ActShift
			for ci, img := range ls.cur {
				wire := lane.WireLo + ci
				// Shift-in order: after L shifts, cell j holds the input
				// from cycle L-1-j, so drive img[L-1-k]; cycles addressing
				// beyond a shorter chain's length are padding.
				if idx := L - 1 - k; idx < len(img) {
					cyc.TamIn[wire] = img[idx]
				} else {
					cyc.TamIn[wire] = B0
				}
				// Unload of the previous pattern drains head-first... the
				// cell nearest TAM-out leaves first.
				if ls.prev != nil {
					pimg := ls.prev[ci]
					if idx := len(pimg) - 1 - k; idx >= 0 {
						cyc.TamExpect[wire] = pimg[idx]
					}
				}
			}
		} else {
			cyc.Actions[name] = ActCapture
		}
		return nil
	}
	// Final unload.
	k := c - period*p
	if k < L {
		cyc.Actions[name] = ActShift
		for ci, pimg := range ls.expect {
			wire := lane.WireLo + ci
			cyc.TamIn[wire] = B0
			if idx := len(pimg) - 1 - k; idx >= 0 {
				cyc.TamExpect[wire] = pimg[idx]
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
	nPI := len(fs.cur.PI)
	for s := 0; s < lane.Slots; s++ {
		slotIdx := j*lane.Slots + s
		if slotIdx < nPI {
			cyc.Func[lane.SlotLo+s] = FromBool(fs.cur.PI[slotIdx])
		} else if slotIdx < nPI+len(fs.cur.ExpectPO) {
			cyc.FuncExpect[lane.SlotLo+s] = FromBool(fs.cur.ExpectPO[slotIdx-nPI])
		}
	}
}
