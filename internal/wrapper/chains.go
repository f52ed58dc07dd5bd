// Package wrapper implements the IEEE 1500-style core test wrapper used by
// STEAC (Fig. 1 "Wrapper Generator"): the wrapper boundary register (WBR)
// cell whose area matches the paper's 26 NAND2-equivalent gates, wrapper
// chain design (partitioning internal scan chains and boundary cells onto
// the TAM wires assigned by the scheduler, with perfect rebalancing for
// soft cores), scan test-time models, and structural wrapper generation.
package wrapper

import (
	"fmt"
	"sort"

	"steac/internal/testinfo"
)

// Partitioner selects the heuristic used to assign core scan chains to
// wrapper chains on hard cores.
type Partitioner int

// Partitioners (compared by the BenchmarkWrapperChainDesign ablation).
const (
	// LPT is longest-processing-time-first: sort chains by descending
	// length, always assign to the currently shortest wrapper chain.
	LPT Partitioner = iota
	// FirstFit assigns chains in the given order to the first wrapper
	// chain below the running average.
	FirstFit
	// Optimal exhaustively minimizes the maximum wrapper-chain length;
	// exponential, only usable for the small chain counts of real cores.
	Optimal
)

// String names the partitioner.
func (p Partitioner) String() string {
	switch p {
	case LPT:
		return "LPT"
	case FirstFit:
		return "first-fit"
	case Optimal:
		return "optimal"
	}
	return fmt.Sprintf("Partitioner(%d)", int(p))
}

// ParsePartitioner resolves a request or flag name: "lpt" (or empty),
// "firstfit" or "optimal".  These differ from String's report names.
func ParsePartitioner(name string) (Partitioner, error) {
	switch name {
	case "", "lpt":
		return LPT, nil
	case "firstfit":
		return FirstFit, nil
	case "optimal":
		return Optimal, nil
	}
	return LPT, fmt.Errorf("unknown partitioner %q (lpt, firstfit or optimal)", name)
}

// Chain is one designed wrapper chain: input boundary cells, then core
// scan-chain segments, then output boundary cells.
type Chain struct {
	// CoreChains holds indices into the core's ScanChains slice (empty
	// for a pure boundary chain).  For soft cores the segments are
	// synthetic and SegmentBits holds their lengths instead.
	CoreChains  []int
	SegmentBits []int
	InCells     int
	OutCells    int
}

// ScanBits returns the internal scan bits on this wrapper chain.
func (c Chain) ScanBits() int {
	total := 0
	for _, b := range c.SegmentBits {
		total += b
	}
	return total
}

// Length returns the total shift length of the wrapper chain.
func (c Chain) Length() int { return c.InCells + c.ScanBits() + c.OutCells }

// Plan is a complete wrapper-chain design for one core at one TAM width.
type Plan struct {
	Core   string
	Width  int
	Chains []Chain
	// Soft records whether the core's chains were rebalanced.
	Soft bool
}

// MaxLength returns the longest wrapper chain, which paces scan shifting.
func (p Plan) MaxLength() int {
	m := 0
	for _, c := range p.Chains {
		if l := c.Length(); l > m {
			m = l
		}
	}
	return m
}

// BoundaryCell locates a boundary cell: output cell k (the cell of PO k)
// when out, else input cell k (PI k).  Boundary cells are allocated in
// order across the chains, input cells at a chain's head and output cells
// at its tail; ok is false when the plan has no such cell.
func (p Plan) BoundaryCell(out bool, k int) (chain, pos int, ok bool) {
	for ci, ch := range p.Chains {
		n, base := ch.InCells, 0
		if out {
			n, base = ch.OutCells, ch.InCells+ch.ScanBits()
		}
		if k < n {
			return ci, base + k, true
		}
		k -= n
	}
	return 0, 0, false
}

// ScanTestCycles returns the scan test time for the plan: with p patterns
// and maximum wrapper chain length L, the classical cycle count
// (1+L)·p + L (load/shift overlapped across patterns, one capture per
// pattern, plus the final unload).
func (p Plan) ScanTestCycles(patterns int) int {
	if patterns <= 0 {
		return 0
	}
	l := p.MaxLength()
	return (1+l)*patterns + l
}

// DesignChains partitions the core's scan chains and boundary cells over
// width wrapper chains.  Soft cores are perfectly rebalanced (the scheduler
// feeds the balanced lengths back to the SOC integrator, paper §2); hard
// cores use the given partitioner on the fixed chains and then pad with
// boundary cells greedily.
func DesignChains(core *testinfo.Core, width int, part Partitioner) (Plan, error) {
	if width < 1 {
		return Plan{}, fmt.Errorf("wrapper: width %d < 1", width)
	}
	if err := core.Validate(); err != nil {
		return Plan{}, err
	}
	if len(core.ScanChains) == 0 {
		// Pure-functional core: boundary cells only.
		plan := Plan{Core: core.Name, Width: width, Chains: make([]Chain, width)}
		distributeBoundary(plan.Chains, core.PIs, core.POs)
		return plan, nil
	}
	if core.Soft {
		return designSoft(core, width), nil
	}
	return designHard(core, width, part)
}

// designSoft rebalances a soft core: all scan bits plus boundary cells are
// spread as evenly as possible.
func designSoft(core *testinfo.Core, width int) Plan {
	plan := Plan{Core: core.Name, Width: width, Soft: true, Chains: make([]Chain, width)}
	total := core.TotalScanBits()
	base, extra := total/width, total%width
	for i := range plan.Chains {
		bits := base
		if i < extra {
			bits++
		}
		if bits > 0 {
			plan.Chains[i].SegmentBits = []int{bits}
		}
	}
	distributeBoundary(plan.Chains, core.PIs, core.POs)
	return plan
}

func designHard(core *testinfo.Core, width int, part Partitioner) (Plan, error) {
	lengths := make([]int, len(core.ScanChains))
	for i, ch := range core.ScanChains {
		lengths[i] = ch.Length
	}
	var assign []int
	switch part {
	case LPT:
		assign = partitionLPT(lengths, width)
	case FirstFit:
		assign = partitionFirstFit(lengths, width)
	case Optimal:
		if len(lengths) > 16 {
			return Plan{}, fmt.Errorf("wrapper: optimal partitioner limited to 16 chains, got %d", len(lengths))
		}
		assign = partitionOptimal(lengths, width)
	default:
		return Plan{}, fmt.Errorf("wrapper: unknown partitioner %d", int(part))
	}
	plan := Plan{Core: core.Name, Width: width, Chains: make([]Chain, width)}
	for ci, wi := range assign {
		plan.Chains[wi].CoreChains = append(plan.Chains[wi].CoreChains, ci)
		plan.Chains[wi].SegmentBits = append(plan.Chains[wi].SegmentBits, lengths[ci])
	}
	distributeBoundary(plan.Chains, core.PIs, core.POs)
	return plan, nil
}

// distributeBoundary adds input and output boundary cells to the wrapper
// chains, always padding the currently shortest chain (greedy balancing).
func distributeBoundary(chains []Chain, inCells, outCells int) {
	addOne := func(isIn bool) {
		best := 0
		for i := 1; i < len(chains); i++ {
			if chains[i].Length() < chains[best].Length() {
				best = i
			}
		}
		if isIn {
			chains[best].InCells++
		} else {
			chains[best].OutCells++
		}
	}
	for i := 0; i < inCells; i++ {
		addOne(true)
	}
	for i := 0; i < outCells; i++ {
		addOne(false)
	}
}

func partitionLPT(lengths []int, width int) []int {
	order := make([]int, len(lengths))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lengths[order[a]] > lengths[order[b]] })
	loads := make([]int, width)
	assign := make([]int, len(lengths))
	for _, ci := range order {
		best := 0
		for w := 1; w < width; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		assign[ci] = best
		loads[best] += lengths[ci]
	}
	return assign
}

func partitionFirstFit(lengths []int, width int) []int {
	total := 0
	for _, l := range lengths {
		total += l
	}
	avg := (total + width - 1) / width
	loads := make([]int, width)
	assign := make([]int, len(lengths))
	for ci, l := range lengths {
		placed := false
		for w := 0; w < width; w++ {
			if loads[w]+l <= avg {
				assign[ci] = w
				loads[w] += l
				placed = true
				break
			}
		}
		if !placed {
			best := 0
			for w := 1; w < width; w++ {
				if loads[w] < loads[best] {
					best = w
				}
			}
			assign[ci] = best
			loads[best] += l
		}
	}
	return assign
}

// partitionOptimal does branch-and-bound over all assignments.
func partitionOptimal(lengths []int, width int) []int {
	order := make([]int, len(lengths))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return lengths[order[a]] > lengths[order[b]] })

	best := make([]int, len(lengths))
	copy(best, partitionLPT(lengths, width))
	bestMax := maxLoad(lengths, best, width)

	cur := make([]int, len(lengths))
	loads := make([]int, width)
	var rec func(k int)
	rec = func(k int) {
		if k == len(order) {
			m := 0
			for _, l := range loads {
				if l > m {
					m = l
				}
			}
			if m < bestMax {
				bestMax = m
				copy(best, cur)
			}
			return
		}
		ci := order[k]
		seen := make(map[int]bool)
		for w := 0; w < width; w++ {
			if seen[loads[w]] {
				continue // symmetric branch
			}
			seen[loads[w]] = true
			if loads[w]+lengths[ci] >= bestMax {
				continue
			}
			loads[w] += lengths[ci]
			cur[ci] = w
			rec(k + 1)
			loads[w] -= lengths[ci]
		}
	}
	rec(0)
	return best
}

func maxLoad(lengths, assign []int, width int) int {
	loads := make([]int, width)
	for ci, w := range assign {
		loads[w] += lengths[ci]
	}
	m := 0
	for _, l := range loads {
		if l > m {
			m = l
		}
	}
	return m
}
