package sched

// Exports for the external sched_test package, whose tests draw their
// chips from the scenario registry (which imports sched).

// ExhaustiveJobLimit is the largest job count the session search
// enumerates exhaustively.
const ExhaustiveJobLimit = exhaustiveJobLimit

// AlmostLE is the scheduler's tolerant power comparison.
var AlmostLE = almostLE

// JobCount is the number of core jobs the session search partitions.
func JobCount(tests []Test) int {
	jobs, _ := buildJobs(tests)
	return len(jobs)
}

// ReferenceBest re-derives the exhaustive-search optimum with a plain,
// unpruned enumeration: every partition fully designed, first strict
// minimum in enumeration order wins.  ok is false when no partition is
// feasible.
func ReferenceBest(tests []Test, res Resources) (total int, ok bool) {
	jobs, bist := buildJobs(tests)
	tc := newTimeCache(res.Partitioner)
	var best searchResult
	forEachPartition(jobs, func(part [][]coreJob) {
		r := evalPartition(part, bist, res, tc)
		if r.ok && (!best.ok || r.total < best.total) {
			best = r
		}
	})
	return best.total, best.ok
}
