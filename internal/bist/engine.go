// Package bist implements the memory built-in self-test architecture of the
// paper's Fig. 2: a single shared BIST Controller that the external tester
// reaches through a narrow pin interface, one or more Sequencers that
// generate March-based test algorithms, and one Test Pattern Generator (TPG)
// per memory that translates the March commands into the RAM's own signals.
//
// The package provides a cycle-accurate behavioural engine (Engine) used to
// run BIST sessions against fault-free or fault-injected memories, analytic
// test-time formulas that the engine is verified against, and structural
// netlist generation for the controller/sequencer/TPG blocks so that the
// BRAINS compiler can report hardware cost in NAND2-equivalent gates.
package bist

import (
	"context"
	"fmt"

	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/obs"
)

// Observability: one span per session run, cycle/memory totals added once
// per run (never inside the per-op TPG loop, which stays metric-free).
var (
	obsSpanRun    = obs.GetSpan("bist.run")
	obsRuns       = obs.GetCounter("bist.runs")
	obsCycles     = obs.GetCounter("bist.cycles")
	obsMemsTested = obs.GetCounter("bist.memories_tested")
)

// Tester-interface pin names of the shared BIST controller (Fig. 2).
const (
	PinMBS = "MBS" // BIST start
	PinMBR = "MBR" // BIST reset
	PinMBC = "MBC" // BIST clock
	PinMSI = "MSI" // serial command in
	PinMSO = "MSO" // serial data out
	PinMBO = "MBO" // BIST over
	PinMRD = "MRD" // result / go-nogo
)

// MemoryUnderTest couples one RAM instance to its TPG settings.
type MemoryUnderTest struct {
	RAM memory.RAM
	// Background is the data word the TPG writes for March value 0; value
	// 1 writes the complement.  All-zeros is the classical solid
	// background.
	Background uint64
}

// Group is one sequencer's worth of memories: they run the same March
// algorithm in lockstep (parallel within the group).
type Group struct {
	Name string
	Alg  march.Algorithm
	Mems []MemoryUnderTest
	// Backgrounds, when non-empty, runs the algorithm once per data
	// background (overriding each memory's own Background); intra-word
	// coupling faults need a checkerboard pass on top of the solid one.
	Backgrounds []uint64
	// PauseBefore lists element indices preceded by a retention pause of
	// PauseCycles tester cycles; data-retention faults decay during the
	// pause (retention test mode).
	PauseBefore []int
	PauseCycles int
	// TestPortB appends a port-B verification pass for the two-port
	// memories in the group: write through port A, read back through port
	// B (w0, rB0, w1, rB1), catching read-port defects invisible to the
	// port-A March.
	TestPortB bool
}

// Pauser is implemented by fault-injectable memories whose retention
// victims decay during a test pause.
type Pauser interface{ Pause() }

// PortBReader is implemented by two-port memories: ReadB reads through the
// read-only port.
type PortBReader interface{ ReadB(addr int) uint64 }

// backgroundsOrDefault returns the background list (nil means one run with
// each memory's own background).
func (g Group) backgroundsOrDefault() []uint64 {
	if len(g.Backgrounds) == 0 {
		return nil
	}
	return g.Backgrounds
}

// cyclesForElement returns the cycles the group spends on one element: the
// largest memory paces the group.
func (g Group) cyclesForElement(e march.Element) int {
	maxWords := 0
	for _, m := range g.Mems {
		if w := m.RAM.Config().Words; w > maxWords {
			maxWords = w
		}
	}
	return maxWords * len(e.Ops)
}

// Cycles returns the analytic cycle count for the whole group: one March
// run per data background (at least one), plus the retention pauses.
func (g Group) Cycles() int {
	total := 0
	for _, e := range g.Alg.Elements {
		total += g.cyclesForElement(e)
	}
	total += len(g.PauseBefore) * g.PauseCycles
	if n := len(g.Backgrounds); n > 1 {
		total *= n
	}
	total += g.portBCycles()
	return total
}

// portBCycles returns the port-B pass length: 4 sweeps over the largest
// two-port memory (single-port memories idle).
func (g Group) portBCycles() int {
	if !g.TestPortB {
		return 0
	}
	maxW := 0
	for _, m := range g.Mems {
		if m.RAM.Config().Kind == memory.TwoPort {
			if w := m.RAM.Config().Words; w > maxW {
				maxW = w
			}
		}
	}
	return 4 * maxW
}

// Schedule selects how the controller runs multiple sequencer groups.
type Schedule int

// Schedules.
const (
	// Serial runs the groups one after another (lowest power).
	Serial Schedule = iota
	// Parallel runs all groups simultaneously (lowest time).
	Parallel
)

// String names the schedule.
func (s Schedule) String() string {
	if s == Parallel {
		return "parallel"
	}
	return "serial"
}

// FailInfo records the first mismatch observed on a memory.
type FailInfo struct {
	Cycle int
	Addr  int
	Elem  int
	Got   uint64
	Want  uint64
}

// MemResult is the per-memory outcome of a BIST run.
type MemResult struct {
	Name      string
	Pass      bool
	FirstFail *FailInfo
}

// Result is the outcome of a full BIST session.
type Result struct {
	Pass        bool
	Cycles      int
	GroupCycles []int
	Mems        []MemResult
}

// Engine runs BIST sessions.  A zero Engine is not usable; construct with
// NewEngine.
type Engine struct {
	groups   []Group
	schedule Schedule

	// diagnosis mode state (see diagnosis.go).
	diagMax int
	diag    map[string]*Diagnosis
}

// NewEngine validates the plan and builds an engine.
func NewEngine(groups []Group, schedule Schedule) (*Engine, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("bist: no groups")
	}
	for _, g := range groups {
		if err := g.Alg.Validate(); err != nil {
			return nil, fmt.Errorf("bist: group %s: %w", g.Name, err)
		}
		if len(g.Mems) == 0 {
			return nil, fmt.Errorf("bist: group %s has no memories", g.Name)
		}
		for _, m := range g.Mems {
			if err := m.RAM.Config().Validate(); err != nil {
				return nil, fmt.Errorf("bist: group %s: %w", g.Name, err)
			}
		}
	}
	if schedule != Serial && schedule != Parallel {
		return nil, fmt.Errorf("bist: unknown schedule %d", int(schedule))
	}
	return &Engine{groups: groups, schedule: schedule}, nil
}

// tpgState is the per-memory TPG: its own address counter and op pointer so
// that differently sized memories in one group each sweep their own address
// space and idle once done with the current element.
type tpgState struct {
	mem      MemoryUnderTest
	addr     int
	opIdx    int
	elemDone bool
	result   MemResult
}

func (t *tpgState) resetElement(e march.Element) {
	t.opIdx = 0
	t.elemDone = false
	if e.Order == march.Down {
		t.addr = t.mem.RAM.Config().Words - 1
	} else {
		t.addr = 0
	}
}

// step applies one op of element e, advancing address/op pointers.  It
// returns true while the TPG is still active in this element.  onFail,
// when non-nil, receives every read mismatch (diagnosis mode).
func (t *tpgState) step(e march.Element, elemIdx, cycle int, onFail failFn) bool {
	if t.elemDone {
		return false
	}
	cfg := t.mem.RAM.Config()
	op := e.Ops[t.opIdx]
	data := t.mem.Background & cfg.Mask()
	if op.Value == 1 {
		data = ^t.mem.Background & cfg.Mask()
	}
	if op.Read {
		got := t.mem.RAM.Read(t.addr)
		if got != data {
			if t.result.FirstFail == nil {
				t.result.Pass = false
				t.result.FirstFail = &FailInfo{Cycle: cycle, Addr: t.addr, Elem: elemIdx, Got: got, Want: data}
			}
			if onFail != nil {
				onFail(cfg.Name, t.addr, got, data, cfg.Bits)
			}
		}
	} else {
		t.mem.RAM.Write(t.addr, data)
	}
	t.opIdx++
	if t.opIdx == len(e.Ops) {
		t.opIdx = 0
		if e.Order == march.Down {
			t.addr--
			if t.addr < 0 {
				t.elemDone = true
			}
		} else {
			t.addr++
			if t.addr >= cfg.Words {
				t.elemDone = true
			}
		}
	}
	return true
}

// failFn receives every read mismatch (diagnosis mode).
type failFn func(name string, addr int, got, want uint64, bits int)

// cancelPollCycles is how many lockstep TPG cycles a group run simulates
// between ctx polls: a cycle is nanoseconds, so the poll granularity is a
// few microseconds — far inside the promptness budget — while the poll
// itself stays invisible on the profile.
const cancelPollCycles = 8192

// runGroup runs one group to completion (or until ctx fires; canceled runs
// report ok=false and their partial results are discarded by the caller).
func runGroup(ctx context.Context, g Group, startCycle int, onFail failFn) (int, []MemResult, bool) {
	tpgs := make([]*tpgState, len(g.Mems))
	for i, m := range g.Mems {
		tpgs[i] = &tpgState{mem: m, result: MemResult{Name: m.RAM.Config().Name, Pass: true}}
	}
	cycles := 0
	pollIn := cancelPollCycles
	runs := g.backgroundsOrDefault()
	passes := len(runs)
	if passes == 0 {
		passes = 1
	}
	for pass := 0; pass < passes; pass++ {
		if runs != nil {
			for _, t := range tpgs {
				t.mem.Background = runs[pass]
			}
		}
		for ei, e := range g.Alg.Elements {
			if ctx.Err() != nil {
				return cycles, nil, false
			}
			for _, pb := range g.PauseBefore {
				if pb != ei {
					continue
				}
				// Retention pause: the sequencer idles, retention
				// victims decay.
				for _, t := range tpgs {
					if p, ok := t.mem.RAM.(Pauser); ok {
						p.Pause()
					}
				}
				cycles += g.PauseCycles
			}
			for _, t := range tpgs {
				t.resetElement(e)
			}
			for {
				active := false
				for _, t := range tpgs {
					if t.step(e, ei, startCycle+cycles, onFail) {
						active = true
					}
				}
				if !active {
					break
				}
				cycles++
				if pollIn--; pollIn <= 0 {
					pollIn = cancelPollCycles
					if ctx.Err() != nil {
						return cycles, nil, false
					}
				}
			}
		}
	}
	if g.TestPortB {
		cycles += portBPass(tpgs, startCycle+cycles)
	}
	results := make([]MemResult, len(tpgs))
	for i, t := range tpgs {
		results[i] = t.result
	}
	return cycles, results, true
}

// portBPass writes through port A and reads back through port B of every
// two-port memory, in four lockstep sweeps (w0, rB0, w1, rB1).
func portBPass(tpgs []*tpgState, startCycle int) int {
	maxW := 0
	var twoPort []*tpgState
	for _, t := range tpgs {
		cfg := t.mem.RAM.Config()
		if cfg.Kind != memory.TwoPort {
			continue
		}
		if _, ok := t.mem.RAM.(PortBReader); !ok {
			continue
		}
		twoPort = append(twoPort, t)
		if cfg.Words > maxW {
			maxW = cfg.Words
		}
	}
	if len(twoPort) == 0 {
		return 0
	}
	cycles := 0
	for sweep := 0; sweep < 4; sweep++ {
		read := sweep%2 == 1
		value := sweep >= 2
		for addr := 0; addr < maxW; addr++ {
			for _, t := range twoPort {
				cfg := t.mem.RAM.Config()
				if addr >= cfg.Words {
					continue
				}
				data := t.mem.Background & cfg.Mask()
				if value {
					data = ^t.mem.Background & cfg.Mask()
				}
				if read {
					got := t.mem.RAM.(PortBReader).ReadB(addr)
					if got != data && t.result.FirstFail == nil {
						t.result.Pass = false
						t.result.FirstFail = &FailInfo{
							Cycle: startCycle + cycles, Addr: addr,
							Elem: -1, Got: got, Want: data,
						}
					}
				} else {
					t.mem.RAM.Write(addr, data)
				}
			}
			cycles++
		}
	}
	return cycles
}

// RunContext executes the whole session under a context.  The cycle loop
// polls ctx every cancelPollCycles simulated cycles and at every element
// boundary; a canceled run returns ctx.Err() wrapped with the stage name
// and no partial Result.
func (e *Engine) RunContext(ctx context.Context) (Result, error) {
	tm := obsSpanRun.Start()
	defer tm.Stop()
	res := Result{Pass: true}
	var onFail failFn
	if e.diagMax > 0 {
		e.diag = make(map[string]*Diagnosis)
		onFail = e.recordFail
	}
	switch e.schedule {
	case Parallel:
		for _, g := range e.groups {
			cyc, mems, ok := runGroup(ctx, g, 0, onFail)
			if !ok {
				return Result{}, fmt.Errorf("bist: run: %w", ctx.Err())
			}
			res.GroupCycles = append(res.GroupCycles, cyc)
			if cyc > res.Cycles {
				res.Cycles = cyc
			}
			res.Mems = append(res.Mems, mems...)
		}
	default: // Serial
		at := 0
		for _, g := range e.groups {
			cyc, mems, ok := runGroup(ctx, g, at, onFail)
			if !ok {
				return Result{}, fmt.Errorf("bist: run: %w", ctx.Err())
			}
			res.GroupCycles = append(res.GroupCycles, cyc)
			at += cyc
			res.Mems = append(res.Mems, mems...)
		}
		res.Cycles = at
	}
	for _, m := range res.Mems {
		if !m.Pass {
			res.Pass = false
		}
	}
	obsRuns.Add(1)
	obsCycles.Add(int64(res.Cycles))
	obsMemsTested.Add(int64(len(res.Mems)))
	return res, nil
}

// PredictedCycles returns the analytic session length, which Run is
// verified to match exactly.
func (e *Engine) PredictedCycles() int {
	total := 0
	for _, g := range e.groups {
		c := g.Cycles()
		if e.schedule == Parallel {
			if c > total {
				total = c
			}
		} else {
			total += c
		}
	}
	return total
}
