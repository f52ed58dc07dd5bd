package obs_test

// Worker-count invariance: the obs metric totals an engine publishes must
// not depend on how many goroutines it fanned the work across.  These tests
// run the real engines (memfault.Coverage, sched.SessionBased) at worker
// counts {1, 2, NumCPU, 2·NumCPU} with span timing enabled, so the -race
// build doubles as the concurrency stress test for the instrumentation
// inside the engines' worker pools.
//
// Search-effort counters (sched.sessions_designed, sched.partitions_
// evaluated) are deliberately NOT asserted: branch-and-bound pruning
// depends on how fast the shared bound tightens, so the work done — unlike
// the result — legitimately varies with worker count.

import (
	"context"
	"runtime"
	"testing"

	"steac/internal/march"
	"steac/internal/memfault"
	"steac/internal/memory"
	"steac/internal/obs"
	"steac/internal/obs/bench"
	"steac/internal/scenario"
	"steac/internal/sched"
)

// workerCounts returns {1, 2, NumCPU, 2·NumCPU} deduplicated in order.
func workerCounts() []int {
	n := runtime.NumCPU()
	seen := map[int]bool{}
	var out []int
	for _, w := range []int{1, 2, n, 2 * n} {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// delta captures the change of a counter set across one engine run.
func deltas(names []string, run func()) map[string]int64 {
	before := make(map[string]int64, len(names))
	for _, n := range names {
		before[n] = obs.CounterValue(n)
	}
	run()
	out := make(map[string]int64, len(names))
	for _, n := range names {
		out[n] = obs.CounterValue(n) - before[n]
	}
	return out
}

func TestMemfaultTotalsWorkerInvariant(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	cfg := memory.Config{Name: "inv", Words: 16, Bits: 4}
	faults := memfault.AllFaults(cfg)
	alg := march.MarchCMinus()
	names := []string{"memfault.campaigns", "memfault.faults_simulated", "memfault.faults_detected"}

	var ref map[string]int64
	for _, w := range workerCounts() {
		var camp memfault.Campaign
		d := deltas(names, func() {
			c, err := memfault.CoverageContext(context.Background(), alg, cfg, faults, memfault.Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			camp = c
		})
		if d["memfault.campaigns"] != 1 {
			t.Fatalf("workers=%d: campaigns delta %d, want 1", w, d["memfault.campaigns"])
		}
		if d["memfault.faults_simulated"] != int64(camp.Total) ||
			d["memfault.faults_detected"] != int64(camp.Detected) {
			t.Fatalf("workers=%d: counter deltas %v disagree with campaign %d/%d",
				w, d, camp.Detected, camp.Total)
		}
		if ref == nil {
			ref = d
			continue
		}
		for _, n := range names {
			if d[n] != ref[n] {
				t.Fatalf("workers=%d: %s delta %d, workers=1 saw %d", w, n, d[n], ref[n])
			}
		}
	}
}

func TestSchedTotalsWorkerInvariant(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	chip, err := scenario.GenerateByName("hybrid-power", 42)
	if err != nil {
		t.Fatal(err)
	}
	tests, err := bench.ChipTests(chip)
	if err != nil {
		t.Fatal(err)
	}
	res := chip.Resources
	names := []string{"sched.schedules_built", "sched.jobs_scheduled"}

	var ref map[string]int64
	var refBest, refCycles int64
	for _, w := range workerCounts() {
		res.Workers = w
		var s *sched.Schedule
		d := deltas(names, func() {
			sc, err := sched.SessionBasedContext(context.Background(), tests, res)
			if err != nil {
				t.Fatal(err)
			}
			s = sc
		})
		best := obs.GetGauge("sched.best_total_cycles").Value()
		if best != int64(s.TotalCycles) {
			t.Fatalf("workers=%d: best gauge %d, schedule says %d", w, best, s.TotalCycles)
		}
		if d["sched.schedules_built"] != 1 {
			t.Fatalf("workers=%d: schedules_built delta %d, want 1", w, d["sched.schedules_built"])
		}
		if ref == nil {
			ref, refBest, refCycles = d, best, int64(s.TotalCycles)
			continue
		}
		if best != refBest || int64(s.TotalCycles) != refCycles {
			t.Fatalf("workers=%d: schedule %d cycles (gauge %d), workers=1 found %d (gauge %d)",
				w, s.TotalCycles, best, refCycles, refBest)
		}
		for _, n := range names {
			if d[n] != ref[n] {
				t.Fatalf("workers=%d: %s delta %d, workers=1 saw %d", w, n, d[n], ref[n])
			}
		}
	}
}
