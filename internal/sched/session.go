package sched

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"steac/internal/obs"
	"steac/internal/par"
	"steac/internal/testinfo"
)

// Observability.  schedules_built / jobs_scheduled and the best-cycles
// gauge are worker-count-invariant (asserted by the obs stress tests);
// sessions_designed and partitions_evaluated measure search effort, which
// legitimately varies with worker count because branch-and-bound pruning
// depends on how fast the shared bound tightens.
var (
	obsSpanSearch = obs.GetSpan("sched.session_based")
	obsSchedules  = obs.GetCounter("sched.schedules_built")
	obsJobs       = obs.GetCounter("sched.jobs_scheduled")
	obsDesigns    = obs.GetCounter("sched.sessions_designed")
	obsLeaves     = obs.GetCounter("sched.partitions_evaluated")
	obsBestGauge  = obs.GetGauge("sched.best_total_cycles")
)

// coreJob groups a core's tests: scan first, then functional, chained
// back-to-back inside one session.
type coreJob struct {
	core *testinfo.Core
	scan *Test
	fn   *Test
}

func buildJobs(tests []Test) ([]coreJob, []Test) {
	byCore := make(map[string]*coreJob)
	var order []string
	var bist []Test
	for i := range tests {
		t := tests[i]
		if t.Kind == BISTKind {
			bist = append(bist, t)
			continue
		}
		j, ok := byCore[t.Core.Name]
		if !ok {
			j = &coreJob{core: t.Core}
			byCore[t.Core.Name] = j
			order = append(order, t.Core.Name)
		}
		if t.Kind == ScanKind {
			j.scan = &tests[i]
		} else {
			j.fn = &tests[i]
		}
	}
	jobs := make([]coreJob, 0, len(order))
	for _, n := range order {
		jobs = append(jobs, *byCore[n])
	}
	return jobs, bist
}

// jobPeakPower is the job's worst-case instantaneous power (its tests are
// chained, never concurrent).
func (j coreJob) peakPower() float64 {
	p := 0.0
	if j.scan != nil && j.scan.Power > p {
		p = j.scan.Power
	}
	if j.fn != nil && j.fn.Power > p {
		p = j.fn.Power
	}
	return p
}

// sessionDesign is the evaluated layout of one session of core jobs.
type sessionDesign struct {
	jobs        []coreJob
	placements  []Placement
	cycles      int
	controlPins int
	dataPins    int
	corePower   float64
	// powerSum is Σ placement powers (scan + functional), the session's
	// committed power against Resources.PowerBudget.
	powerSum float64
	// bist occupancy added by the fill phase.
	bistCycles int
	bistPower  float64
	// bistPowerSum is Σ BIST group powers filled into this session, the
	// groups' contribution to the PowerBudget accounting.
	bistPowerSum float64
	bistPl       []Placement
}

func (s *sessionDesign) length() int {
	if s.bistCycles > s.cycles {
		return s.bistCycles
	}
	return s.cycles
}

// designSession assigns TAM widths and functional pins to the jobs of one
// session and computes its length.  Control pins are shared (that is what
// the session barrier buys); four pins stay reserved for the BIST tester
// interface so BIST groups can be filled into any session.
func designSession(jobs []coreJob, res Resources) (*sessionDesign, error) {
	return designSessionCached(jobs, res, newTimeCache(res.Partitioner))
}

func designSessionCached(jobs []coreJob, res Resources, tc *timeCache) (*sessionDesign, error) {
	obsDesigns.Add(1)
	cores := make([]*testinfo.Core, len(jobs))
	for i, j := range jobs {
		cores[i] = j.core
	}
	control := ControlPins(cores, true, true)
	data := res.TestPins - control
	if data < 0 {
		return nil, errInfeasible
	}

	// Scan widths: start everyone at 1 wire, then spend remaining pins on
	// the largest marginal gain.
	type scanState struct {
		job   int
		width int
		cyc   int
		max   int
	}
	var scans []*scanState
	pinsLeft := data
	for ji, j := range jobs {
		if j.scan == nil {
			continue
		}
		if pinsLeft < 2 {
			return nil, errInfeasible
		}
		cyc, err := tc.scanCycles(j.core, 1)
		if err != nil {
			return nil, err
		}
		scans = append(scans, &scanState{job: ji, width: 1, cyc: cyc,
			max: maxUsefulWidth(j.core, data)})
		pinsLeft -= 2
	}
	for pinsLeft >= 2 {
		var best *scanState
		bestGain := 0
		var bestCyc int
		for _, s := range scans {
			if s.width >= s.max {
				continue
			}
			c, err := tc.scanCycles(jobs[s.job].core, s.width+1)
			if err != nil {
				return nil, err
			}
			if gain := s.cyc - c; gain > bestGain {
				bestGain, best, bestCyc = gain, s, c
			}
		}
		if best == nil {
			break
		}
		best.width++
		best.cyc = bestCyc
		pinsLeft -= 2
	}

	// Functional pins: waterfill FuncPins across the session's functional
	// tests (they overlap across cores).
	type funcState struct {
		job     int
		granted int
		cyc     int
	}
	var funcs []*funcState
	var needs []int
	for ji, j := range jobs {
		if j.fn == nil {
			continue
		}
		funcs = append(funcs, &funcState{job: ji})
		needs = append(needs, j.fn.NeedFuncPins)
	}
	if len(funcs) > 0 {
		grants, err := waterfill(needs, res.FuncPins)
		if err != nil {
			return nil, err
		}
		for i, f := range funcs {
			f.granted = grants[i]
			cyc, err := FuncCycles(jobs[f.job].fn.Patterns, jobs[f.job].fn.NeedFuncPins, f.granted)
			if err != nil {
				return nil, errInfeasible
			}
			f.cyc = cyc
		}
	}

	// Assemble placements; a job's functional test starts after its scan.
	des := &sessionDesign{jobs: jobs, controlPins: control, dataPins: data - pinsLeft}
	jobEnd := make([]int, len(jobs))
	for _, s := range scans {
		des.placements = append(des.placements, Placement{
			Test: *jobs[s.job].scan, Width: s.width, Cycles: s.cyc,
		})
		jobEnd[s.job] = s.cyc
	}
	for _, f := range funcs {
		des.placements = append(des.placements, Placement{
			Test: *jobs[f.job].fn, FuncPins: f.granted, Cycles: f.cyc,
			Start: jobEnd[f.job],
		})
		jobEnd[f.job] += f.cyc
	}
	for _, e := range jobEnd {
		if e > des.cycles {
			des.cycles = e
		}
	}
	for _, j := range jobs {
		des.corePower += j.peakPower()
	}
	if res.MaxPower > 0 && !almostLE(des.corePower, res.MaxPower) {
		return nil, errInfeasible
	}
	for _, p := range des.placements {
		des.powerSum += p.Test.Power
	}
	// The per-session budget is monotone in membership (adding a job only
	// adds power), so the branch-and-bound's infeasibility pruning stays
	// valid with it enforced here.
	if res.PowerBudget > 0 && !almostLE(des.powerSum, res.PowerBudget) {
		return nil, errInfeasible
	}
	return des, nil
}

// waterfill grants pins to demands from a shared budget: everyone capped at
// their need, surplus redistributed.
func waterfill(needs []int, budget int) ([]int, error) {
	grants := make([]int, len(needs))
	if len(needs) == 0 {
		return grants, nil
	}
	if budget < len(needs) {
		return nil, errInfeasible
	}
	type item struct{ idx, need int }
	items := make([]item, len(needs))
	for i, n := range needs {
		items[i] = item{i, n}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].need < items[b].need })
	remaining := budget
	left := len(items)
	for _, it := range items {
		share := remaining / left
		g := it.need
		if g > share {
			g = share
		}
		if g < 1 {
			g = 1
		}
		grants[it.idx] = g
		remaining -= g
		left--
	}
	return grants, nil
}

// SessionBasedContext builds the session-based schedule: it enumerates partitions
// of the core jobs into sessions (exhaustively up to 10 cores, greedily
// beyond), designs each session, fills BIST groups into session slack
// (serial within a session: one shared BIST controller), and returns the
// partition with the lowest total test time.
//
// The exhaustive search runs as a parallel branch-and-bound across
// Resources.Workers goroutines (sessions are designed incrementally as jobs
// are placed; subtrees whose partial cycle sum already exceeds the best
// known total are pruned).  The result is identical to the serial
// exhaustive enumeration for every worker count: the same optimum, with
// ties broken by enumeration order.
//
// The partition search polls ctx at batch boundaries (task claims and every cancelPollInterval
// search nodes) and returns ctx.Err() wrapped with the stage name as soon
// as the workers drain.  A canceled search never returns a partial
// schedule.
func SessionBasedContext(ctx context.Context, tests []Test, res Resources) (*Schedule, error) {
	tm := obsSpanSearch.Start()
	defer tm.Stop()
	jobs, bist := buildJobs(tests)
	if len(jobs) == 0 && len(bist) == 0 {
		return nil, fmt.Errorf("sched: nothing to schedule")
	}
	tc := newTimeCache(res.Partitioner)

	var best searchResult
	switch {
	case len(jobs) == 0:
		best = evalPartition(nil, bist, res, tc)
	case len(jobs) <= exhaustiveJobLimit:
		best = searchPartitions(ctx, jobs, bist, res, tc)
	default:
		var err error
		best, err = greedySearch(ctx, jobs, bist, res, tc)
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sched: session search: %w", err)
	}
	if !best.ok {
		return nil, fmt.Errorf("sched: no feasible session partition under %d test pins / %d func pins: %w",
			res.TestPins, res.FuncPins, ErrInfeasible)
	}
	bestSessions := best.sessions

	// Longest sessions first: the controller runs them in a fixed order
	// and this mirrors the DSC flow (big scan session first).
	sort.SliceStable(bestSessions, func(a, b int) bool {
		return bestSessions[a].length() > bestSessions[b].length()
	})
	sched := &Schedule{Kind: "session-based"}
	for si, d := range bestSessions {
		s := Session{
			Index:       si,
			Cycles:      d.length(),
			ControlPins: d.controlPins,
			DataPins:    d.dataPins,
			PeakPower:   d.corePower + d.bistPower,
		}
		s.Placements = append(s.Placements, d.placements...)
		s.Placements = append(s.Placements, d.bistPl...)
		sched.Sessions = append(sched.Sessions, s)
		sched.TotalCycles += s.Cycles
		if s.ControlPins > sched.ControlPinsMax {
			sched.ControlPinsMax = s.ControlPins
		}
	}
	obsSchedules.Add(1)
	obsJobs.Add(int64(len(jobs)))
	obsBestGauge.Set(int64(sched.TotalCycles))
	return sched, nil
}

// fillBIST packs BIST groups into session slack (best-fit decreasing); a
// group that fits nowhere without growth goes where it grows the total
// least, including possibly a BIST-only overflow session.  Groups in one
// session run serially behind the shared controller.
func fillBIST(sessions []*sessionDesign, bist []Test, res Resources) ([]*sessionDesign, bool) {
	out := make([]*sessionDesign, len(sessions))
	for i, s := range sessions {
		cp := *s
		cp.bistPl = nil
		cp.bistCycles = 0
		cp.bistPower = 0
		cp.bistPowerSum = 0
		out[i] = &cp
	}
	groups := make([]Test, len(bist))
	copy(groups, bist)
	sort.SliceStable(groups, func(a, b int) bool { return groups[a].FixedCycles > groups[b].FixedCycles })

	powerOK := func(s *sessionDesign, g Test) bool {
		if res.MaxPower > 0 {
			p := g.Power
			if s.bistPower > p {
				p = s.bistPower
			}
			if !almostLE(s.corePower+p, res.MaxPower) {
				return false
			}
		}
		if res.PowerBudget > 0 &&
			!almostLE(s.powerSum+s.bistPowerSum+g.Power, res.PowerBudget) {
			return false
		}
		return true
	}
	for _, g := range groups {
		bestIdx, bestGrowth, bestSlack := -1, -1, -1
		for i, s := range out {
			if !powerOK(s, g) {
				continue
			}
			newBist := s.bistCycles + g.FixedCycles
			growth := 0
			if newBist > s.cycles && newBist > s.length() {
				growth = newBist - s.length()
			}
			slack := s.length() - newBist
			if bestIdx < 0 || growth < bestGrowth ||
				(growth == bestGrowth && growth == 0 && slack < bestSlack) {
				bestIdx, bestGrowth, bestSlack = i, growth, slack
			}
		}
		// Open a fresh BIST-only session only when no existing session is
		// power-feasible (growth can never exceed the group length, so an
		// existing session is otherwise always at least as good and keeps
		// the session count low).
		if bestIdx < 0 {
			ns := &sessionDesign{controlPins: ControlPins(nil, true, true)}
			if res.MaxPower > 0 && !almostLE(g.Power, res.MaxPower) {
				return nil, false
			}
			if res.PowerBudget > 0 && !almostLE(g.Power, res.PowerBudget) {
				return nil, false
			}
			ns.bistPl = append(ns.bistPl, Placement{Test: g, Cycles: g.FixedCycles})
			ns.bistCycles = g.FixedCycles
			ns.bistPower = g.Power
			ns.bistPowerSum = g.Power
			out = append(out, ns)
			continue
		}
		s := out[bestIdx]
		s.bistPl = append(s.bistPl, Placement{Test: g, Cycles: g.FixedCycles, Start: s.bistCycles})
		s.bistCycles += g.FixedCycles
		s.bistPowerSum += g.Power
		if g.Power > s.bistPower {
			s.bistPower = g.Power
		}
	}
	return out, true
}

// exhaustiveJobLimit is the largest job count searched exhaustively
// (Bell(10) = 115,975 partitions); beyond it the LPT greedy takes over.
const exhaustiveJobLimit = 10

// searchResult is one feasible schedule candidate: the BIST-filled session
// designs and their total length.
type searchResult struct {
	ok       bool
	total    int
	sessions []*sessionDesign
}

// evalPartition designs every session of a complete partition, fills BIST
// into the slack and totals the schedule; !ok if any session is infeasible.
func evalPartition(part [][]coreJob, bist []Test, res Resources, tc *timeCache) searchResult {
	obsLeaves.Add(1)
	designs := make([]*sessionDesign, 0, len(part))
	for _, group := range part {
		d, err := designSessionCached(group, res, tc)
		if err != nil {
			return searchResult{}
		}
		designs = append(designs, d)
	}
	designs, ok := fillBIST(designs, bist, res)
	if !ok {
		return searchResult{}
	}
	total := 0
	for _, d := range designs {
		total += d.length()
	}
	return searchResult{ok: true, total: total, sessions: designs}
}

// partitionSearcher is the per-task state of the exact branch-and-bound
// session search.  It walks the set-partition tree in the same order as
// forEachPartition, designing the one modified session at each step, and
// prunes a subtree when the partial cycle sum already exceeds the best
// total seen anywhere (session length and infeasibility are both monotone
// in session membership: adding a core only raises control-pin, data-pin
// and power demand).
type partitionSearcher struct {
	ctx    context.Context
	jobs   []coreJob
	bist   []Test
	res    Resources
	tc     *timeCache
	shared *atomic.Int64 // best total across all tasks, for pruning only

	groups  [][]coreJob
	designs []*sessionDesign
	sum     int // Σ designs[i].cycles, a lower bound on any completion
	best    searchResult

	// Cancellation: ctx is polled every cancelPollInterval recursion steps
	// (a step designs at most one session, so the poll granularity is
	// microseconds × the interval); once it fires, the whole subtree
	// unwinds without visiting further nodes.
	pollIn  int
	stopped bool
}

// cancelPollInterval is how many search nodes a task visits between ctx
// polls: rare enough to stay off the profile, frequent enough that a cancel
// unwinds in well under the 250 ms promptness budget the tests assert.
const cancelPollInterval = 512

// cancelled polls the task's context on a countdown and latches the result.
func (ps *partitionSearcher) cancelled() bool {
	if ps.stopped {
		return true
	}
	ps.pollIn--
	if ps.pollIn > 0 {
		return false
	}
	ps.pollIn = cancelPollInterval
	if ps.ctx.Err() != nil {
		ps.stopped = true
	}
	return ps.stopped
}

// bound is the total a candidate must strictly beat to matter.
func (ps *partitionSearcher) bound() int {
	b := int(ps.shared.Load())
	if ps.best.ok && ps.best.total < b {
		b = ps.best.total
	}
	return b
}

func (ps *partitionSearcher) rec(i int) {
	if ps.cancelled() {
		return
	}
	if i == len(ps.jobs) {
		ps.leaf()
		return
	}
	job := ps.jobs[i]
	for k := range ps.groups {
		ps.groups[k] = append(ps.groups[k], job)
		if d, err := designSessionCached(ps.groups[k], ps.res, ps.tc); err == nil {
			if newSum := ps.sum - ps.designs[k].cycles + d.cycles; newSum <= ps.bound() {
				old, oldSum := ps.designs[k], ps.sum
				ps.designs[k], ps.sum = d, newSum
				ps.rec(i + 1)
				ps.designs[k], ps.sum = old, oldSum
			}
		}
		ps.groups[k] = ps.groups[k][:len(ps.groups[k])-1]
	}
	if d, err := designSessionCached([]coreJob{job}, ps.res, ps.tc); err == nil && ps.sum+d.cycles <= ps.bound() {
		ps.groups = append(ps.groups, []coreJob{job})
		ps.designs = append(ps.designs, d)
		ps.sum += d.cycles
		ps.rec(i + 1)
		ps.sum -= d.cycles
		ps.groups = ps.groups[:len(ps.groups)-1]
		ps.designs = ps.designs[:len(ps.designs)-1]
	}
}

// leaf evaluates a complete partition.  Only a strict improvement replaces
// the task-local best, so the first partition (in enumeration order)
// achieving the optimum wins — the serial tie-break.
func (ps *partitionSearcher) leaf() {
	obsLeaves.Add(1)
	designs, ok := fillBIST(ps.designs, ps.bist, ps.res)
	if !ok {
		return
	}
	total := 0
	for _, d := range designs {
		total += d.length()
	}
	if ps.best.ok && total >= ps.best.total {
		return
	}
	// Detach the winning designs from the mutable recursion buffers.
	for _, d := range designs {
		d.jobs = append([]coreJob(nil), d.jobs...)
	}
	ps.best = searchResult{ok: true, total: total, sessions: designs}
	for {
		cur := ps.shared.Load()
		if int64(total) >= cur || ps.shared.CompareAndSwap(cur, int64(total)) {
			return
		}
	}
}

// runTask explores every completion of a prefix partition (a partition of
// jobs[:depth]) and returns its best candidate.
func (ps *partitionSearcher) runTask(prefix [][]coreJob, depth int) searchResult {
	for _, g := range prefix {
		g = append([]coreJob(nil), g...) // private, mutable copy
		d, err := designSessionCached(g, ps.res, ps.tc)
		if err != nil {
			// Infeasibility is monotone: no completion of this prefix
			// can design this session either.
			return searchResult{}
		}
		ps.groups = append(ps.groups, g)
		ps.designs = append(ps.designs, d)
		ps.sum += d.cycles
	}
	ps.rec(depth)
	return ps.best
}

// bellNumbers[d] is the number of set partitions of d elements, used to
// size the task split of the parallel search.
var bellNumbers = []int{1, 1, 2, 5, 15, 52, 203}

// searchPartitions runs the exact session search over all set partitions
// of jobs, fanned across res.Workers goroutines (par.Do).  Tasks are the
// partitions of a short job prefix, in enumeration order; merging by task
// order restores the exact serial tie-break.  A canceled search returns
// early and the caller reports ctx.Err().
func searchPartitions(ctx context.Context, jobs []coreJob, bist []Test, res Resources, tc *timeCache) searchResult {
	var shared atomic.Int64
	shared.Store(int64(math.MaxInt64))
	newSearcher := func() *partitionSearcher {
		return &partitionSearcher{ctx: ctx, jobs: jobs, bist: bist, res: res, tc: tc,
			shared: &shared, pollIn: cancelPollInterval}
	}
	n := len(jobs)
	// No split below has more tasks than the deepest one, Bell(min(n-1, 6)).
	workers := par.Workers(res.Workers, bellNumbers[min(n-1, len(bellNumbers)-1)])
	if workers <= 1 || n < 3 {
		return newSearcher().runTask(nil, 0)
	}

	// Split depth: enough tasks to keep the pool busy, small enough that
	// prefix re-design stays negligible.
	depth := 1
	for depth < n-1 && depth < len(bellNumbers)-1 && bellNumbers[depth] < 4*workers {
		depth++
	}
	var tasks [][][]coreJob
	forEachPartition(jobs[:depth], func(p [][]coreJob) { tasks = append(tasks, p) })

	results := make([]searchResult, len(tasks))
	// The tasks never fail, and the caller checks ctx, so Do's error is
	// not needed here.
	_ = par.Do(ctx, workers, len(tasks), nil, func(_ struct{}, t int) error {
		results[t] = newSearcher().runTask(tasks[t], depth)
		return nil
	})
	var best searchResult
	for _, r := range results {
		if r.ok && (!best.ok || r.total < best.total) {
			best = r
		}
	}
	return best
}

// greedySearch is the fallback for many cores: LPT packings into k = 1..n
// sessions, evaluated concurrently on res.Workers goroutines (par.Do),
// merged in k order.
func greedySearch(ctx context.Context, jobs []coreJob, bist []Test, res Resources, tc *timeCache) (searchResult, error) {
	durs, err := greedyDurations(jobs, res, tc)
	if err != nil {
		return searchResult{}, err
	}
	results := make([]searchResult, len(jobs))
	// As in searchPartitions: no item fails, and the caller checks ctx.
	_ = par.Do(ctx, res.Workers, len(jobs), nil, func(_ struct{}, i int) error {
		results[i] = evalPartition(greedyPartition(jobs, durs, i+1), bist, res, tc)
		return nil
	})
	var best searchResult
	for _, r := range results {
		if r.ok && (!best.ok || r.total < best.total) {
			best = r
		}
	}
	return best, nil
}

// forEachPartition enumerates all set partitions of jobs.
func forEachPartition(jobs []coreJob, fn func([][]coreJob)) {
	var rec func(i int, part [][]coreJob)
	rec = func(i int, part [][]coreJob) {
		if i == len(jobs) {
			cp := make([][]coreJob, len(part))
			for k := range part {
				cp[k] = append([]coreJob(nil), part[k]...)
			}
			fn(cp)
			return
		}
		for k := range part {
			part[k] = append(part[k], jobs[i])
			rec(i+1, part)
			part[k] = part[k][:len(part[k])-1]
		}
		part = append(part, []coreJob{jobs[i]})
		rec(i+1, part)
	}
	rec(0, nil)
}

// greedyDurations estimates each job's standalone duration (scan at one
// TAM wire plus functional at the full pin budget) for LPT packing.  An
// estimation failure is propagated rather than silently weighting the job
// at zero cycles, which would mis-sort the packing.
func greedyDurations(jobs []coreJob, res Resources, tc *timeCache) ([]int, error) {
	durs := make([]int, len(jobs))
	for i, j := range jobs {
		d := 0
		if j.scan != nil {
			c, err := tc.scanCycles(j.core, 1)
			if err != nil {
				return nil, fmt.Errorf("sched: scan time of %s: %w", j.core.Name, err)
			}
			d += c
		}
		if j.fn != nil {
			c, err := FuncCycles(j.fn.Patterns, j.fn.NeedFuncPins, res.FuncPins)
			if err != nil {
				return nil, fmt.Errorf("sched: functional time of %s: %w", j.core.Name, err)
			}
			d += c
		}
		durs[i] = d
	}
	return durs, nil
}

// greedyPartition packs jobs with the given durations into k sessions,
// longest-processing-time first.
func greedyPartition(jobs []coreJob, durs []int, k int) [][]coreJob {
	type jt struct {
		job coreJob
		dur int
	}
	items := make([]jt, len(jobs))
	for i, j := range jobs {
		items[i] = jt{j, durs[i]}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].dur > items[b].dur })
	part := make([][]coreJob, k)
	loads := make([]int, k)
	for _, it := range items {
		best := 0
		for s := 1; s < k; s++ {
			if loads[s] < loads[best] {
				best = s
			}
		}
		part[best] = append(part[best], it.job)
		loads[best] += it.dur
	}
	var nonEmpty [][]coreJob
	for _, p := range part {
		if len(p) > 0 {
			nonEmpty = append(nonEmpty, p)
		}
	}
	return nonEmpty
}
