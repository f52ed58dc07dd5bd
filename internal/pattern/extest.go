package pattern

import (
	"fmt"

	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// EXTEST interconnect testing (the classical IEEE 1500 use of the wrapper
// boundary): the source cores' output boundary cells drive the core-to-core
// glue wiring and the sink cores' input boundary cells capture it, so opens
// and bridges in the SOC-level interconnect are tested without involving
// any core logic.  STEAC schedules it as one extra session in which every
// wrapped core holds a width-1 TAM lane.

// Interconnect is one glue wire from a source core output to a sink core
// input.
type Interconnect struct {
	FromCore string
	FromPO   int
	ToCore   string
	ToPI     int
}

// ExtestCoreLane is one core's share of the EXTEST session.
type ExtestCoreLane struct {
	Core   *testinfo.Core
	Plan   wrapper.Plan
	WireLo int
}

// ExtestLane is the whole EXTEST session configuration.
type ExtestLane struct {
	Cores []ExtestCoreLane
	Wires []Interconnect
	// Wires2 is the total TAM wires the session occupies (sum of the
	// cores' chain counts).
	Wires2  int
	Vectors int
	// MaxLen is the longest wrapper chain across the cores; it paces the
	// common shift phase.
	MaxLen int
	Cycles int
}

// extestVectorBits returns the number of test vectors for n interconnects:
// the modified counting sequence (each wire gets the code i+1, so no wire
// is all-0s or all-1s) plus its complement, which together detect all
// opens (stuck wires) and all pairwise AND/OR bridges.
func extestVectorBits(n int) int {
	bits := 0
	for v := n + 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// ExtestDrive returns the value wire i drives in vector v.
func (l *ExtestLane) ExtestDrive(i, v int) bool {
	half := l.Vectors / 2
	code := i + 1
	if v < half {
		return code&(1<<v) != 0
	}
	return code&(1<<(v-half)) == 0
}

// BuildExtest plans the EXTEST session over the given cores and
// interconnect list.  Each core keeps the wrapper-chain structure of its
// scheduled TAM width (widths, default 1), so the EXTEST patterns shift
// through exactly the chains the inserted wrapper implements; wire ranges
// are assigned in core order.
func BuildExtest(cores []*testinfo.Core, wires []Interconnect, widths map[string]int, part wrapper.Partitioner) (*ExtestLane, error) {
	if len(wires) == 0 {
		return nil, fmt.Errorf("pattern: no interconnects to test")
	}
	byName := make(map[string]*testinfo.Core, len(cores))
	for _, c := range cores {
		byName[c.Name] = c
	}
	lane := &ExtestLane{Wires: wires}
	for wi, w := range wires {
		src, ok := byName[w.FromCore]
		if !ok {
			return nil, fmt.Errorf("pattern: interconnect %d: unknown source core %s", wi, w.FromCore)
		}
		dst, ok := byName[w.ToCore]
		if !ok {
			return nil, fmt.Errorf("pattern: interconnect %d: unknown sink core %s", wi, w.ToCore)
		}
		if w.FromPO < 0 || w.FromPO >= src.POs {
			return nil, fmt.Errorf("pattern: interconnect %d: PO %d out of range for %s", wi, w.FromPO, w.FromCore)
		}
		if w.ToPI < 0 || w.ToPI >= dst.PIs {
			return nil, fmt.Errorf("pattern: interconnect %d: PI %d out of range for %s", wi, w.ToPI, w.ToCore)
		}
	}
	wireLo := 0
	for _, c := range cores {
		w := widths[c.Name]
		if w < 1 {
			w = 1
		}
		plan, err := wrapper.DesignChains(c, w, part)
		if err != nil {
			return nil, err
		}
		if plan.Soft {
			hard := *c
			hard.Soft = false
			if plan, err = wrapper.DesignChains(&hard, w, part); err != nil {
				return nil, err
			}
		}
		lane.Cores = append(lane.Cores, ExtestCoreLane{
			Core: c, Plan: plan, WireLo: wireLo,
		})
		wireLo += len(plan.Chains)
		if l := plan.MaxLength(); l > lane.MaxLen {
			lane.MaxLen = l
		}
	}
	lane.Wires2 = wireLo
	lane.Vectors = 2 * extestVectorBits(len(wires))
	lane.Cycles = (lane.MaxLen+1)*lane.Vectors + lane.MaxLen
	return lane, nil
}

// AttachExtest binds the EXTEST lane to the program session with the given
// index (the session the flow appended to the schedule) and widens the
// program's TAM to carry one wire per core.
func (prog *Program) AttachExtest(sessionIdx int, lane *ExtestLane) error {
	if sessionIdx < 0 || sessionIdx >= len(prog.Sessions) {
		return fmt.Errorf("pattern: extest session %d of %d", sessionIdx, len(prog.Sessions))
	}
	l := &prog.Sessions[sessionIdx]
	if len(l.Scan) > 0 || len(l.Func) > 0 {
		return fmt.Errorf("pattern: extest session %d already carries core tests", sessionIdx)
	}
	if l.Cycles != lane.Cycles {
		return fmt.Errorf("pattern: extest session %d is %d cycles, lane needs %d",
			sessionIdx, l.Cycles, lane.Cycles)
	}
	l.Extest = lane
	if lane.Wires2 > prog.TamWidth {
		prog.TamWidth = lane.Wires2
	}
	return nil
}

// extestImages renders vector v as per-core, per-chain load and expect
// images.  Load: source out-cells drive their wire's bit, everything else
// is don't-care (padded 0).  Expect: sink in-cells must capture the driven
// bit; everything else is X.
func (l *ExtestLane) extestImages(v int) (load, expect map[string][][]Bit) {
	load = make(map[string][][]Bit, len(l.Cores))
	expect = make(map[string][][]Bit, len(l.Cores))
	// Per core: map PO index -> drive bit, PI index -> expected bit.
	poDrive := make(map[string]map[int]Bit)
	piExpect := make(map[string]map[int]Bit)
	for wi, w := range l.Wires {
		b := FromBool(l.ExtestDrive(wi, v))
		if poDrive[w.FromCore] == nil {
			poDrive[w.FromCore] = make(map[int]Bit)
		}
		poDrive[w.FromCore][w.FromPO] = b
		if piExpect[w.ToCore] == nil {
			piExpect[w.ToCore] = make(map[int]Bit)
		}
		piExpect[w.ToCore][w.ToPI] = b
	}
	for _, cl := range l.Cores {
		piIdx, poIdx := 0, 0
		var li, ei [][]Bit
		for _, ch := range cl.Plan.Chains {
			lc := make([]Bit, 0, ch.Length())
			ec := make([]Bit, 0, ch.Length())
			for k := 0; k < ch.InCells; k++ {
				lc = append(lc, BX)
				if b, ok := piExpect[cl.Core.Name][piIdx]; ok {
					ec = append(ec, b)
				} else {
					ec = append(ec, BX)
				}
				piIdx++
			}
			for _, seg := range ch.SegmentBits {
				for k := 0; k < seg; k++ {
					lc = append(lc, BX)
					ec = append(ec, BX)
				}
			}
			for k := 0; k < ch.OutCells; k++ {
				if b, ok := poDrive[cl.Core.Name][poIdx]; ok {
					lc = append(lc, b)
				} else {
					lc = append(lc, BX)
				}
				ec = append(ec, BX)
				poIdx++
			}
			li = append(li, lc)
			ei = append(ei, ec)
		}
		load[cl.Core.Name] = li
		expect[cl.Core.Name] = ei
	}
	return load, expect
}

// streamExtest emits the EXTEST session cycles: all cores shift together
// for MaxLen cycles per vector (update+capture on the MaxLen+1-th), then a
// final unload.
func (prog *Program) streamExtest(lane *ExtestLane, fn func(c int, cyc *Cycle) bool) error {
	cyc := newCycle(prog.TamWidth, prog.FuncBus, len(lane.Cores))
	L := lane.MaxLen
	period := L + 1
	var curLoad, prevExpect map[string][][]Bit
	c := 0
	emit := func() bool {
		obsCyclesStreamed.Add(1)
		ok := fn(c, cyc)
		c++
		return ok
	}
	for v := 0; v < lane.Vectors; v++ {
		load, expect := lane.extestImages(v)
		curLoad = load
		for k := 0; k < period; k++ {
			cyc.reset()
			if k < L {
				for i, cl := range lane.Cores {
					cyc.Actions[i] = ActShift
					for ci, img := range curLoad[cl.Core.Name] {
						wire := cl.WireLo + ci
						if idx := L - 1 - k; idx < len(img) {
							cyc.TamIn.Set(wire, img[idx])
						} else {
							cyc.TamIn.Set(wire, B0)
						}
						if prevExpect != nil {
							pimg := prevExpect[cl.Core.Name][ci]
							if idx := len(pimg) - 1 - k; idx >= 0 {
								cyc.TamExpect.Set(wire, pimg[idx])
							}
						}
					}
				}
			} else {
				for i := range lane.Cores {
					cyc.Actions[i] = ActCapture
				}
			}
			if !emit() {
				return nil
			}
		}
		prevExpect = expect
	}
	// Final unload.
	for k := 0; k < L; k++ {
		cyc.reset()
		for i, cl := range lane.Cores {
			cyc.Actions[i] = ActShift
			for ci, pimg := range prevExpect[cl.Core.Name] {
				wire := cl.WireLo + ci
				cyc.TamIn.Set(wire, B0)
				if idx := len(pimg) - 1 - k; idx >= 0 {
					cyc.TamExpect.Set(wire, pimg[idx])
				}
			}
		}
		if !emit() {
			return nil
		}
	}
	return nil
}
