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

// ExtestLane is the whole EXTEST session configuration.
type ExtestLane struct {
	// Cores holds one chain lane per wrapped core, each shifting MaxLen
	// cycles per vector.
	Cores []ChainLane
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
		lane.Cores = append(lane.Cores, ChainLane{Core: c, Plan: plan, WireLo: wireLo, Test: "chip.extest"})
		wireLo += len(plan.Chains)
		lane.MaxLen = max(lane.MaxLen, plan.MaxLength())
	}
	lane.Wires2 = wireLo
	lane.Vectors = 2 * extestVectorBits(len(wires))
	lane.Cycles = (lane.MaxLen+1)*lane.Vectors + lane.MaxLen
	for i := range lane.Cores {
		cl := &lane.Cores[i]
		cl.Depth, cl.Patterns, cl.Cycles = lane.MaxLen, lane.Vectors, lane.Cycles
		cl.fill = func(v int, load, expect [][]Bit) error {
			lane.extestImages(i, v, load, expect)
			return nil
		}
	}
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
	if len(l.Chains) > 0 || len(l.Func) > 0 {
		return fmt.Errorf("pattern: extest session %d already carries core tests", sessionIdx)
	}
	if l.Cycles != lane.Cycles {
		return fmt.Errorf("pattern: extest session %d is %d cycles, lane needs %d",
			sessionIdx, l.Cycles, lane.Cycles)
	}
	l.Extest, l.Chains = lane, lane.Cores
	if lane.Wires2 > prog.TamWidth {
		prog.TamWidth = lane.Wires2
	}
	return nil
}

// extestImages fills core i's per-chain load and expect images for vector
// v.  Load: source out-cells drive their wire's bit, everything else is
// don't-care.  Expect: sink in-cells must capture the driven bit;
// everything else is X.
func (l *ExtestLane) extestImages(i, v int, load, expect [][]Bit) {
	cl := &l.Cores[i]
	for ci := range load {
		for k := range load[ci] {
			load[ci][k], expect[ci][k] = BX, BX
		}
	}
	for wi, w := range l.Wires {
		b := FromBool(l.ExtestDrive(wi, v))
		if w.FromCore == cl.Core.Name {
			if ci, pos, ok := cl.Plan.BoundaryCell(true, w.FromPO); ok {
				load[ci][pos] = b
			}
		}
		if w.ToCore == cl.Core.Name {
			if ci, pos, ok := cl.Plan.BoundaryCell(false, w.ToPI); ok {
				expect[ci][pos] = b
			}
		}
	}
}
