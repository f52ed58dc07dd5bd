package ate

import (
	"fmt"
	"slices"
	"sort"

	"steac/internal/pattern"
)

// Mismatch describes the first failing compare.
type Mismatch struct {
	Session int
	Cycle   int
	Pin     string
}

// Result is the outcome of applying a full chip program.
type Result struct {
	Pass          bool
	Cycles        int
	SessionCycles []int
	Mismatches    int
	First         *Mismatch
	// FailingTests lists the test IDs whose compare windows saw
	// mismatches (sorted, deduplicated) — the ATE-side diagnosis of
	// which core or session failed.
	FailingTests []string
}

// Run applies the translated program to the chip, comparing every non-X
// expectation, and returns the tally.  The cycle count is the ATE's test
// time — the figure the paper's scheduling experiment reports.
func Run(prog *pattern.Program, chip *Chip) (Result, error) {
	t := newTester()
	for si, layout := range prog.Sessions {
		if err := chip.StartSession(si); err != nil {
			return t.res, err
		}
		count := 0
		err := prog.Stream(layout, func(c int, cyc *pattern.Cycle) bool {
			t.apply(chip, si, &layout, c, cyc)
			count++
			return true
		})
		if err != nil {
			return t.res, err
		}
		if count != layout.Cycles {
			return t.res, fmt.Errorf("ate: session %d emitted %d of %d cycles: %w", si, count, layout.Cycles, pattern.ErrCycleCount)
		}
		if !chip.BISTSatisfied() {
			return t.res, fmt.Errorf("ate: session %d ended before BIST completed", si)
		}
		t.endSession(count)
	}
	return t.result(), nil
}

// RunRecorded applies a tester file (pattern.ReadProgramFile) to the chip.
// The chip's DFT configuration still comes from the translated program —
// the file carries stimulus and expectations only, as on a real ATE — so
// the recorded scan controls are resolved to the session's lanes by core
// name, and mismatches are attributed exactly as Run attributes them.
func RunRecorded(prog *pattern.Program, rec *pattern.RecordedProgram, chip *Chip) (Result, error) {
	t := newTester()
	if rec.TamWidth != prog.TamWidth || rec.FuncBus != prog.FuncBus {
		return t.res, fmt.Errorf("ate: recorded program geometry %d/%d does not match chip %d/%d",
			rec.TamWidth, rec.FuncBus, prog.TamWidth, prog.FuncBus)
	}
	if len(rec.Sessions) != len(prog.Sessions) {
		return t.res, fmt.Errorf("ate: recorded %d sessions, chip has %d",
			len(rec.Sessions), len(prog.Sessions))
	}
	for si := range rec.Sessions {
		rs, layout := &rec.Sessions[si], &prog.Sessions[si]
		if len(rs.Cycles) != layout.Cycles {
			return t.res, fmt.Errorf("ate: recorded session %d has %d of %d cycles: %w",
				si, len(rs.Cycles), layout.Cycles, pattern.ErrCycleCount)
		}
		names := layout.ActionNames()
		lane := make([]int, len(rs.Cores)) // recorded core -> session lane
		for k, name := range rs.Cores {
			if lane[k] = slices.Index(names, name); lane[k] < 0 {
				return t.res, fmt.Errorf("ate: recorded session %d drives core %s, which has no lane in it", si, name)
			}
		}
		if err := chip.StartSession(si); err != nil {
			return t.res, err
		}
		actions := make([]pattern.CoreAction, len(names))
		for c := range rs.Cycles {
			cyc := rs.Cycles[c].Cycle // buses shared, Actions re-indexed
			clear(actions)
			for k, act := range cyc.Actions {
				actions[lane[k]] = act
			}
			cyc.Actions = actions
			t.apply(chip, si, layout, c, &cyc)
		}
		if !chip.BISTSatisfied() {
			return t.res, fmt.Errorf("ate: recorded session %d too short for BIST", si)
		}
		t.endSession(len(rs.Cycles))
	}
	return t.result(), nil
}

// tester is the compare and attribution state Run and RunRecorded share.
type tester struct {
	res     Result
	failing map[string]bool
}

func newTester() *tester {
	return &tester{res: Result{Pass: true}, failing: make(map[string]bool)}
}

// apply steps the chip through one cycle of session si and compares its
// outputs: (got ^ want) & care per 64-pin word, TAM pins then functional
// pins, each in ascending order.
func (t *tester) apply(chip *Chip, si int, layout *pattern.SessionLayout, c int, cyc *pattern.Cycle) {
	tamOut, funcOut := chip.Step(cyc)
	cyc.TamExpect.Mismatches(tamOut, func(w int) {
		t.record(si, c, "tam_out", w)
		if id, ok := wireOwner(layout, w, c); ok {
			t.failing[id] = true
		}
	})
	cyc.FuncExpect.Mismatches(funcOut, func(s int) {
		t.record(si, c, "func", s)
		if id, ok := slotOwner(layout, s, c); ok {
			t.failing[id] = true
		}
	})
}

// record counts one mismatch; the pin label is built only for the first.
func (t *tester) record(session, cycle int, bus string, pin int) {
	t.res.Mismatches++
	if t.res.First == nil {
		t.res.First = &Mismatch{Session: session, Cycle: cycle, Pin: fmt.Sprintf("%s[%d]", bus, pin)}
	}
}

func (t *tester) endSession(cycles int) {
	t.res.SessionCycles = append(t.res.SessionCycles, cycles)
	t.res.Cycles += cycles
}

func (t *tester) result() Result {
	if t.res.Mismatches > 0 {
		t.res.Pass = false
	}
	for id := range t.failing {
		t.res.FailingTests = append(t.res.FailingTests, id)
	}
	sort.Strings(t.res.FailingTests)
	return t.res
}

// wireOwner resolves which test owned TAM wire w at session cycle c.  Pins
// are reused over time (time-disjoint lanes legally share wires and slots),
// so ownership is a (pin, cycle) question, not a pin question.
func wireOwner(layout *pattern.SessionLayout, w, c int) (string, bool) {
	for _, lane := range layout.Chains {
		if w >= lane.WireLo && w < lane.WireLo+len(lane.Plan.Chains) &&
			c >= lane.Start && c < lane.Start+lane.Cycles {
			return lane.Test, true
		}
	}
	return "", false
}

// slotOwner resolves which test owned functional slot s at session cycle c.
func slotOwner(layout *pattern.SessionLayout, s, c int) (string, bool) {
	for _, lane := range layout.Func {
		if s >= lane.SlotLo && s < lane.SlotLo+lane.Slots &&
			c >= lane.Start && c < lane.Start+lane.Cycles {
			return lane.Core.Name + ".func", true
		}
	}
	return "", false
}
