package sched

import (
	"context"
	"reflect"
	"testing"

	"steac/internal/wrapper"
)

// referenceBest re-derives the exhaustive-search optimum with a plain,
// unpruned enumeration: every partition fully designed, first strict
// minimum in enumeration order wins.  The branch-and-bound search (any
// worker count) must reproduce it exactly.
func referenceBest(t *testing.T, tests []Test, res Resources) searchResult {
	t.Helper()
	jobs, bist := buildJobs(tests)
	tc := newTimeCache(res.Partitioner)
	var best searchResult
	forEachPartition(jobs, func(part [][]coreJob) {
		r := evalPartition(part, bist, res, tc)
		if r.ok && (!best.ok || r.total < best.total) {
			best = r
		}
	})
	if !best.ok {
		t.Fatal("reference enumeration found no feasible partition")
	}
	return best
}

// TestSessionBasedParallelDeterminism is the scheduler-side determinism
// guarantee: the parallel branch-and-bound finds the same schedule as a
// serial run and as the unpruned reference enumeration, and the greedy
// fallback finds the same schedule for every worker count.
func TestSessionBasedParallelDeterminism(t *testing.T) {
	fixtures := []struct {
		name  string
		tests func(t *testing.T) []Test
		res   Resources
	}{
		{
			name: "dsc",
			tests: func(t *testing.T) []Test {
				tests, err := BuildTests(dscCores(), dscBist())
				if err != nil {
					t.Fatal(err)
				}
				return tests
			},
			res: dscResources(),
		},
		{
			name: "synthetic8",
			tests: func(t *testing.T) []Test {
				cores := SyntheticSOC(42, 8)
				tests, err := BuildTests(cores, SyntheticBIST(42, 5))
				if err != nil {
					t.Fatal(err)
				}
				return tests
			},
			res: func() Resources {
				r := SyntheticResources(SyntheticSOC(42, 8))
				r.Partitioner = wrapper.LPT
				return r
			}(),
		},
		{
			// More than exhaustiveJobLimit jobs: the greedy path, whose
			// optimum has no unpruned reference to compare against.
			name: "synthetic12-greedy",
			tests: func(t *testing.T) []Test {
				tests, err := BuildTests(SyntheticSOC(7, 12), nil)
				if err != nil {
					t.Fatal(err)
				}
				return tests
			},
			res: func() Resources {
				r := SyntheticResources(SyntheticSOC(7, 12))
				r.Partitioner = wrapper.LPT
				return r
			}(),
		},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			tests := fx.tests(t)
			var ref searchResult
			if jobs, _ := buildJobs(tests); len(jobs) <= exhaustiveJobLimit {
				ref = referenceBest(t, tests, fx.res)
			}

			serialRes, parallelRes := fx.res, fx.res
			serialRes.Workers = 1
			parallelRes.Workers = 8
			serial, err := SessionBasedContext(context.Background(), tests, serialRes)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := SessionBasedContext(context.Background(), tests, parallelRes)
			if err != nil {
				t.Fatal(err)
			}
			if ref.ok && serial.TotalCycles != ref.total {
				t.Errorf("serial search total %d != reference optimum %d",
					serial.TotalCycles, ref.total)
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
	cores := SyntheticSOC(7, 12) // >exhaustiveJobLimit: greedy path
	tests, err := BuildTests(cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := SyntheticResources(cores)
	res.Partitioner = wrapper.LPT
	// An unknown partitioner makes wrapper.DesignChains fail for every
	// scanned hard core, so duration estimation cannot succeed.
	res.Partitioner = wrapper.Partitioner(99)
	if _, err := SessionBasedContext(context.Background(), tests, res); err == nil {
		t.Fatal("expected scan-time estimation error to propagate")
	}
}
