package sched_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"steac/internal/sched"
)

// sessionPowerSums computes, for every session of a schedule, the summed
// power of all its placements — the quantity Resources.PowerBudget bounds.
func sessionPowerSums(s *sched.Schedule) []float64 {
	sums := make([]float64, len(s.Sessions))
	for i, sess := range s.Sessions {
		for _, p := range sess.Placements {
			sums[i] += p.Test.Power
		}
	}
	return sums
}

// maxTestPower is the largest single test power — no budget below it can be
// feasible, and any budget at or above the full sum is never binding.
func maxTestPower(tests []sched.Test) float64 {
	m := 0.0
	for _, t := range tests {
		if t.Power > m {
			m = t.Power
		}
	}
	return m
}

func totalTestPower(tests []sched.Test) float64 {
	s := 0.0
	for _, t := range tests {
		s += t.Power
	}
	return s
}

// unboundedPower draws a power-budgeted hybrid-BIST chip and returns its
// tests under the chip's pin budget with both power limits lifted, the
// unconstrained baseline each test tightens.
func unboundedPower(t *testing.T, seed int64) (sched.Resources, []sched.Test) {
	t.Helper()
	chip, tests := chipTests(t, "hybrid-power", seed)
	res := chip.Resources
	res.MaxPower, res.PowerBudget = 0, 0
	return res, tests
}

// A budget of zero (unbounded) and a budget far above the total demand must
// both reproduce the unconstrained schedule bit-identically: the budget
// check sits on the infeasibility path only and must not perturb search
// order, tie-breaks or BIST fill decisions.
func TestPowerBudgetUnboundedBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		res, tests := unboundedPower(t, seed)
		res.Workers = 1

		base, err := sched.SessionBasedContext(context.Background(), tests, res)
		if err != nil {
			t.Fatalf("seed %d: unconstrained schedule: %v", seed, err)
		}
		for _, budget := range []float64{math.MaxFloat64 / 4, 1e12, totalTestPower(tests) + 1} {
			res2 := res
			res2.PowerBudget = budget
			got, err := sched.SessionBasedContext(context.Background(), tests, res2)
			if err != nil {
				t.Fatalf("seed %d budget %g: %v", seed, budget, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Errorf("seed %d: budget %g changed the schedule: %d sessions / %d cycles vs %d / %d",
					seed, budget, len(got.Sessions), got.TotalCycles, len(base.Sessions), base.TotalCycles)
			}
		}
	}
}

// Any schedule returned under a finite budget must respect it in every
// session, and a budget the scheduler cannot meet must surface as the typed
// sched.ErrInfeasible — never as a silently over-budget schedule.
func TestPowerBudgetNeverExceeded(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		res, tests := unboundedPower(t, seed)
		lo := maxTestPower(tests)
		hi := totalTestPower(tests)
		for i := 0; i <= 8; i++ {
			budget := lo + (hi-lo)*float64(i)/8
			res2 := res
			res2.PowerBudget = budget
			s, err := sched.SessionBasedContext(context.Background(), tests, res2)
			if err != nil {
				if !errors.Is(err, sched.ErrInfeasible) {
					t.Fatalf("seed %d budget %.2f: non-infeasibility error: %v", seed, budget, err)
				}
				continue
			}
			for si, sum := range sessionPowerSums(s) {
				if sum > budget+1e-9 {
					t.Errorf("seed %d budget %.2f: session %d sums to %.2f power",
						seed, budget, si, sum)
				}
			}
		}
	}
}

// A budget below the single largest test power is structurally infeasible:
// that test can never be placed anywhere.
func TestPowerBudgetBelowSingleTestInfeasible(t *testing.T) {
	res, tests := unboundedPower(t, 7)
	res.PowerBudget = maxTestPower(tests) * 0.99
	if _, err := sched.SessionBasedContext(context.Background(), tests, res); !errors.Is(err, sched.ErrInfeasible) {
		t.Fatalf("want sched.ErrInfeasible, got %v", err)
	}
}

// A binding budget must actually bind: a budget just under the unconstrained
// schedule's fattest session forces a repartition into more (or equal)
// sessions, all of which respect the tighter envelope.
func TestPowerBudgetForcesRepartition(t *testing.T) {
	res, tests := unboundedPower(t, 3)
	base, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		t.Fatal(err)
	}
	fattest := 0.0
	for _, sum := range sessionPowerSums(base) {
		if sum > fattest {
			fattest = sum
		}
	}
	res.PowerBudget = fattest - 1e-6
	s, err := sched.SessionBasedContext(context.Background(), tests, res)
	if errors.Is(err, sched.ErrInfeasible) {
		return // legitimately unsplittable under the tighter envelope
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Sessions) < len(base.Sessions) {
		t.Errorf("tighter budget produced fewer sessions: %d vs %d",
			len(s.Sessions), len(base.Sessions))
	}
	for si, sum := range sessionPowerSums(s) {
		if sum > res.PowerBudget+1e-9 {
			t.Errorf("session %d sums to %.2f > budget %.2f", si, sum, res.PowerBudget)
		}
	}
	if s.TotalCycles < base.TotalCycles {
		t.Errorf("constrained schedule is shorter than unconstrained: %d < %d",
			s.TotalCycles, base.TotalCycles)
	}
}
