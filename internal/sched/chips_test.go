package sched_test

import (
	"testing"

	"steac/internal/obs/bench"
	"steac/internal/scenario"
	"steac/internal/sched"
)

// chipTests draws a builtin scenario chip and its schedulable tests.
func chipTests(t *testing.T, name string, seed int64) (*scenario.Chip, []sched.Test) {
	t.Helper()
	chip, err := scenario.GenerateByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	tests, err := bench.ChipTests(chip)
	if err != nil {
		t.Fatal(err)
	}
	return chip, tests
}

// sizedTests is bench.SizedChip(n): a chip with exactly n core jobs.
func sizedTests(t *testing.T, n int) (*scenario.Chip, []sched.Test) {
	t.Helper()
	chip, tests, err := bench.SizedChip(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.JobCount(tests); got != n {
		t.Fatalf("sized chip has %d jobs, want %d", got, n)
	}
	return chip, tests
}

// oneWireBudget gives the non-session baseline exactly one TAM wire after
// it dedicates every control pin, the tightest budget all three schedulers
// meet: IO pressure matters, and the session-based scheduler recovers pins
// through sharing.
func oneWireBudget(chip *scenario.Chip) sched.Resources {
	res := chip.Resources
	res.TestPins = sched.ControlPins(chip.Cores, true, false) + 2
	return res
}
