package sched_test

import (
	"context"
	"reflect"
	"testing"

	"steac/internal/sched"
)

// Across generated SOCs the structural invariants must hold: every test is
// placed exactly once, session totals add up, resource budgets are
// respected, and the session-based scheduler never loses to the serial
// baseline.  The twelve chips — the power-budgeted hybrid-BIST builtin and
// its P1500 logic-BIST variant, six seeds each — carry scan-only,
// scan-plus-functional and functional-only cores, memory BIST groups and
// logic-BIST sessions.
func TestGeneratedChipProperty(t *testing.T) {
	kinds := map[string]int{}
	for i := 0; i < 12; i++ {
		name, seed := []string{"hybrid-power", "p1500-lbist"}[i%2], int64(1+i/2)
		chip, tests := chipTests(t, name, seed)
		for _, c := range chip.Cores {
			if err := c.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			switch {
			case c.ScanPatternCount() > 0 && c.FunctionalPatternCount() > 0:
				kinds["scan+functional"]++
			case c.ScanPatternCount() > 0:
				kinds["scan-only"]++
			default:
				kinds["functional-only"]++
			}
		}
		res := oneWireBudget(chip)

		sb, err := sched.SessionBasedContext(context.Background(), tests, res)
		if err != nil {
			t.Fatalf("%s seed %d: session: %v", name, seed, err)
		}
		ser, err := sched.Serial(tests, res)
		if err != nil {
			t.Fatalf("%s seed %d: serial: %v", name, seed, err)
		}
		nsb, err := sched.NonSessionBased(tests, res)
		if err != nil {
			t.Fatalf("%s seed %d: non-session: %v", name, seed, err)
		}
		if sb.TotalCycles > ser.TotalCycles {
			t.Fatalf("%s seed %d: session-based %d worse than serial %d",
				name, seed, sb.TotalCycles, ser.TotalCycles)
		}
		// Longest single test is a lower bound on any makespan.
		lb, bist := 0, 0
		for _, x := range tests {
			d := x.FixedCycles
			switch x.Kind {
			case sched.ScanKind:
				if c, err := sched.ScanCycles(x.Core, len(x.Core.ScanChains)+2, res.Partitioner); err == nil {
					d = c
				}
			case sched.FuncKind:
				if c, err := sched.FuncCycles(x.Patterns, x.NeedFuncPins, res.FuncPins); err == nil {
					d = c
				}
			default:
				bist++
			}
			if d > lb {
				lb = d
			}
		}
		if bist == 0 {
			t.Fatalf("%s seed %d: chip has no BIST tests", name, seed)
		}
		for what, s := range map[string]*sched.Schedule{"session": sb, "serial": ser, "non-session": nsb} {
			if s.TotalCycles < lb {
				t.Fatalf("%s seed %d: %s total %d below lower bound %d", name, seed, what, s.TotalCycles, lb)
			}
			placed := make(map[string]int)
			for _, sess := range s.Sessions {
				for _, p := range sess.Placements {
					placed[p.Test.ID]++
				}
			}
			if len(placed) != len(tests) {
				t.Fatalf("%s seed %d: %s placed %d of %d tests", name, seed, what, len(placed), len(tests))
			}
			for id, n := range placed {
				if n != 1 {
					t.Fatalf("%s seed %d: %s placed %s %d times", name, seed, what, id, n)
				}
			}
		}
		// Session pin and power budgets.
		for _, sess := range sb.Sessions {
			wires, power := 0, 0.0
			for _, p := range sess.Placements {
				wires += p.Width
				power += p.Test.Power
			}
			if sess.ControlPins+2*wires > res.TestPins {
				t.Fatalf("%s seed %d: session exceeds pin budget", name, seed)
			}
			if res.MaxPower > 0 && !sched.AlmostLE(sess.PeakPower, res.MaxPower) {
				t.Fatalf("%s seed %d: session power %.1f over budget", name, seed, sess.PeakPower)
			}
			if res.PowerBudget > 0 && !sched.AlmostLE(power, res.PowerBudget) {
				t.Fatalf("%s seed %d: session sums %.1f power over the %.1f envelope",
					name, seed, power, res.PowerBudget)
			}
		}
	}
	for _, k := range []string{"scan-only", "scan+functional", "functional-only"} {
		if kinds[k] == 0 {
			t.Errorf("no %s core among the property chips: %v", k, kinds)
		}
	}
}

// The same scenario and seed regenerate the same tests and the same
// schedule.
func TestSyntheticDeterminism(t *testing.T) {
	schedule := func() *sched.Schedule {
		chip, tests := chipTests(t, "p1500-lbist", 7)
		s, err := sched.SessionBasedContext(context.Background(), tests, chip.Resources)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if a, b := schedule(), schedule(); !reflect.DeepEqual(a, b) {
		t.Fatalf("identical scenario seeds scheduled differently:\n%+v\n%+v", a, b)
	}
}
