package sched_test

import (
	"context"
	"reflect"
	"testing"

	"steac/internal/sched"
	"steac/internal/wrapper"
)

// TestSessionBasedParallelDeterminism is the scheduler-side determinism
// guarantee: the parallel branch-and-bound finds the same schedule as a
// serial run and as the unpruned reference enumeration, and the greedy
// fallback finds the same schedule for every worker count.
func TestSessionBasedParallelDeterminism(t *testing.T) {
	fixtures := []struct {
		name  string
		tests func(t *testing.T) ([]sched.Test, sched.Resources)
	}{
		{
			name: "dsc",
			tests: func(t *testing.T) ([]sched.Test, sched.Resources) {
				tests, err := sched.BuildTests(sched.DSCCores(), sched.DSCBist())
				if err != nil {
					t.Fatal(err)
				}
				return tests, sched.DSCResources()
			},
		},
		{
			name: "synthetic8",
			tests: func(t *testing.T) ([]sched.Test, sched.Resources) {
				chip, tests := sizedTests(t, 8)
				return tests, oneWireBudget(chip)
			},
		},
		{
			// More than ExhaustiveJobLimit jobs: the greedy path, whose
			// optimum has no unpruned reference to compare against.
			name: "synthetic12-greedy",
			tests: func(t *testing.T) ([]sched.Test, sched.Resources) {
				chip, tests := sizedTests(t, 12)
				return tests, oneWireBudget(chip)
			},
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			tests, res := fx.tests(t)
			refTotal, refOK := 0, false
			if sched.JobCount(tests) <= sched.ExhaustiveJobLimit {
				if refTotal, refOK = sched.ReferenceBest(tests, res); !refOK {
					t.Fatal("reference enumeration found no feasible partition")
				}
			}

			serialRes, parallelRes := res, res
			serialRes.Workers = 1
			parallelRes.Workers = 8
			serial, err := sched.SessionBasedContext(context.Background(), tests, serialRes)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := sched.SessionBasedContext(context.Background(), tests, parallelRes)
			if err != nil {
				t.Fatal(err)
			}
			if refOK && serial.TotalCycles != refTotal {
				t.Errorf("serial search total %d != reference optimum %d",
					serial.TotalCycles, refTotal)
			}
			if parallel.TotalCycles != serial.TotalCycles {
				t.Errorf("parallel total %d != serial total %d",
					parallel.TotalCycles, serial.TotalCycles)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("parallel schedule differs from serial:\nserial:   %+v\nparallel: %+v",
					serial, parallel)
			}
		})
	}
}

// TestGreedyDurationsPropagatesErrors locks in the satellite fix: a core
// whose scan time cannot be estimated must fail the greedy packing loudly
// instead of being silently weighted at zero cycles.
func TestGreedyDurationsPropagatesErrors(t *testing.T) {
	chip, tests := sizedTests(t, 12) // >ExhaustiveJobLimit: greedy path
	res := chip.Resources
	// An unknown partitioner makes wrapper.DesignChains fail for every
	// scanned hard core, so duration estimation cannot succeed.
	res.Partitioner = wrapper.Partitioner(99)
	if _, err := sched.SessionBasedContext(context.Background(), tests, res); err == nil {
		t.Fatal("expected scan-time estimation error to propagate")
	}
}

// bench.SizedSpec(n) must yield exactly n core jobs at every size the
// suite, benchmarks and tests use, and 9 — the suite's
// sched.search_parallel op — must stay on the exhaustive path.
func TestSizedChipJobCounts(t *testing.T) {
	for _, n := range []int{4, 8, 9, 10, 12, 16, 32} {
		sizedTests(t, n)
	}
	if 9 > sched.ExhaustiveJobLimit {
		t.Fatalf("a 9-job chip is past the exhaustive limit %d", sched.ExhaustiveJobLimit)
	}
}
