package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"steac/internal/obs"
)

// config is one benchmark invocation.
type config struct {
	w       *workload
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	root    string // checkout root
	state   string // build/state directory inside the checkout
}

// opCount is the fixed number of timed ops of a run.
func (c config) opCount() int {
	if c.smoke {
		return 20 * c.w.clients
	}
	// At least 24, so a tail percentile exists even with some failed ops.
	return max(24, int(math.Round(c.w.opsPerSecond*float64(c.seconds))))
}

// setupReps is how many times a run sets up (restart + warm-up); setup_s
// is their median.
func (c config) setupReps() int {
	if c.smoke || c.trace {
		return 1
	}
	return 7
}

func (c config) fixtureSize() fixtureSize {
	if c.smoke {
		return smokeFixture
	}
	return fullFixture
}

func (c config) fixtureRoot() string {
	if c.smoke {
		return filepath.Join(c.state, "fixtures-smoke")
	}
	return filepath.Join(c.state, "fixtures")
}

// phase is one measured pass over the timed ops.
type phase struct {
	results  []result
	wall     time.Duration
	cpu      time.Duration
	host     noise
	counters map[string]int64 // obs counter deltas
	spans    map[string]int64 // obs span nanosecond deltas (traced pass only)
	alloc    uint64           // MemStats.TotalAlloc delta
	startMS  int64            // wall clock at phase start, for catalog ingest times
	trace    []span
}

// executor runs one op.
type executor func(ctx context.Context, op Op) result

// runOps runs ops on the workload's closed-loop clients: client c sends
// its ops (op.Client == c) one after another, each after the previous
// reply.  Results come back in op order.
func runOps(ctx context.Context, ops []Op, clients int, exec executor) []result {
	out := make([]result, len(ops))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, op := range ops {
				if op.Client == c {
					// Keep only the digest of the result bytes, so the
					// benchmark's own memory does not grow with the run.
					r := exec(ctx, op)
					r.sum, r.out = sha256.Sum256(r.out), nil
					out[i] = r
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// Counter and span names read around a phase.
var (
	phaseCounters = []string{
		"serve.cache_hits", "serve.cache_misses", "serve.catalog_ingested",
		"sched.partitions_evaluated", "pattern.cycles_streamed", "bist.cycles",
		"xcheck.pin_checks", "campaign.shards_completed", "memfault.faults_simulated",
		"netlist.packed_ticks",
	}
	phaseSpans = []string{
		"flow", "flow.parse", "flow.brains", "flow.schedule", "flow.insert",
		"flow.translate", "flow.verify", "sched.session_based",
	}
)

// measure runs the timed ops once: GC first, then CPU, host ticks, obs
// counters and allocation are read around the pass.
func measure(ctx context.Context, ops []Op, clients int, exec executor, tr *tracer) phase {
	var p phase
	p.host.CalibrateMSPre = ms(calibrate())
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := map[string]int64{}
	for _, n := range phaseCounters {
		c0[n] = obs.CounterValue(n)
	}
	s0 := map[string]int64{}
	for _, n := range phaseSpans {
		s0[n] = obs.GetSpan(n).Nanos()
	}
	ticks0 := readHostTicks()
	cpu0 := cpuTime()
	p.startMS = time.Now().UnixMilli()
	t0 := time.Now()

	p.results = runOps(ctx, ops, clients, exec)

	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	ticks1 := readHostTicks()
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.counters = map[string]int64{}
	for _, n := range phaseCounters {
		p.counters[n] = obs.CounterValue(n) - c0[n]
	}
	p.spans = map[string]int64{}
	for _, n := range phaseSpans {
		p.spans[n] = obs.GetSpan(n).Nanos() - s0[n]
	}
	p.host.StealFrac = tickFrac(ticks0, ticks1, func(t hostTicks) uint64 { return t.steal })
	p.host.IOWaitFrac = tickFrac(ticks0, ticks1, func(t hostTicks) uint64 { return t.iowait })
	p.host.CalibrateMSPost = ms(calibrate())
	p.trace = tr.snapshot()
	return p
}

// session is one prepared system under test: a restarted daemon, or the
// prepared sign-off chips.
type session struct {
	exec  executor
	setup time.Duration
	warm  []result
	stop  func() error
	// daemon workloads
	d   *daemonRun
	dir string
	// signoff
	so *signoffRun
}

// open sets the system up: for a daemon workload, restart steacd on a
// fresh copy of the fixture; for signoff, generate the chips.  Then it
// runs the warm-up ops.  setup covers both; each set-up starts from a
// collected heap so earlier set-ups' garbage does not land in it.
func open(ctx context.Context, c config, fix string, man *manifest, rep int, warm, timed []Op, tr *tracer) (*session, error) {
	s := &session{}
	if c.w.daemon {
		s.dir = filepath.Join(c.state, "work", fmt.Sprintf("%s-%d-%d", c.w.name, c.seed, rep))
		if err := os.RemoveAll(s.dir); err != nil {
			return nil, err
		}
		if err := copyTree(fix, s.dir); err != nil {
			return nil, fmt.Errorf("copy fixture: %w", err)
		}
		runtime.GC()
		t0 := time.Now()
		d, err := startDaemon(s.dir, benchTenants)
		if err != nil {
			return nil, err
		}
		s.d = &daemonRun{d: d, fix: man, pollEvery: pollInterval, cold: c.w.name == wFlowSweep}
		s.exec = s.d.exec
		s.stop = func() error {
			err := d.stop()
			if rerr := os.RemoveAll(s.dir); err == nil {
				err = rerr
			}
			return err
		}
		s.warm = runOps(ctx, warm, c.w.clients, s.exec)
		s.setup = time.Since(t0)
		s.d.tr = tr
		return s, nil
	}
	runtime.GC()
	t0 := time.Now()
	inputs, err := prepareSignoff(append(append([]Op(nil), warm...), timed...))
	if err != nil {
		return nil, err
	}
	s.so = &signoffRun{inputs: inputs}
	s.exec = s.so.exec
	s.stop = func() error { return nil }
	s.warm = runOps(ctx, warm, c.w.clients, s.exec)
	s.setup = time.Since(t0)
	s.so.tr = tr
	return s, nil
}

// pollInterval is the job poll period: at most 2% of the median job time
// (job-tpg, about 30 ms under two clients).
const pollInterval = 500 * time.Microsecond

// outcome is everything a run reports.
type outcome struct {
	correct   bool
	checkErr  error
	attempted int
	failed    int
	metrics   []metric
	digest    string
	report    []string // human-readable lines printed before the result
	host      noise
}

type metric struct {
	name  string
	unit  string
	value float64
}

// runWorkload is one benchmark invocation in this process.
func runWorkload(c config) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{correct: true}
	var fix string
	var man *manifest
	if c.w.daemon {
		fix = filepath.Join(c.fixtureRoot(), fmt.Sprintf("seed-%d", c.seed))
		var err error
		if man, err = readManifest(fix); err != nil {
			return nil, fmt.Errorf("fixture for seed %d is missing (run --mode fixture first): %w", c.seed, err)
		}
	}
	warm, timed := buildPlan(c.w, c.seed, c.opCount())
	noteCheck := func(rs []result) {
		if err := firstCheck(rs); err != nil && out.checkErr == nil {
			out.checkErr = err
		}
	}

	// Set-up: restart (or regenerate) and warm up, several times; the
	// last set-up serves the timed phase.
	var setups []float64
	var s *session
	for rep := 0; rep < c.setupReps(); rep++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = open(ctx, c, fix, man, rep, warm, timed, nil); err != nil {
			return nil, err
		}
		noteCheck(s.warm)
		setups = append(setups, s.setup.Seconds())
	}
	plain := measure(ctx, timed, c.w.clients, s.exec, nil)
	if err := s.stop(); err != nil {
		return nil, err
	}
	noteCheck(plain.results)
	out.digest = digest(append(s.warm, plain.results...))
	out.host = withHost(plain.host, c.root)

	final := plain
	if c.trace {
		tr := newTracer()
		obs.Enable()
		ts, err := open(ctx, c, fix, man, c.setupReps(), warm, timed, tr)
		if err != nil {
			obs.Disable()
			return nil, err
		}
		noteCheck(ts.warm)
		var jobLines0 int
		if c.w.daemon {
			jobLines0 = countLines(filepath.Join(ts.dir, "jobs", "jobs.jsonl"))
		}
		traced := measure(ctx, timed, c.w.clients, ts.exec, tr)
		obs.Disable()
		noteCheck(traced.results)
		if d := digest(append(ts.warm, traced.results...)); d != out.digest && out.checkErr == nil {
			out.checkErr = fmt.Errorf("%w: traced run digest %s differs from %s", errCheck, d, out.digest)
		}
		lc := layerContext{c: c, fix: fix, timed: timed, plain: plain, traced: traced, sess: ts, jobLines0: jobLines0}
		if c.w.daemon {
			lc.jobLines1 = countLines(filepath.Join(ts.dir, "jobs", "jobs.jsonl"))
			// Stop the daemon without deleting its state: the catalog
			// replays read it.
			if err := ts.d.d.stop(); err != nil {
				return nil, err
			}
		}
		lm, err := layerMetrics(ctx, lc)
		if err == nil && c.w.daemon {
			err = os.RemoveAll(ts.dir)
		}
		if err == nil {
			err = os.MkdirAll(filepath.Join(c.state, "traces"), 0o755)
		}
		if err == nil {
			err = tr.write(filepath.Join(c.state, "traces", fmt.Sprintf("%s-seed%d.jsonl", c.w.name, c.seed)))
		}
		if err != nil {
			return nil, err
		}
		out.metrics = lm
		final = traced
	} else {
		e2e, err := endToEnd(plain, setups)
		if err != nil {
			return nil, err
		}
		out.metrics = e2e
	}

	out.attempted = len(final.results)
	for _, r := range final.results {
		if r.failed() {
			out.failed++
		}
	}
	out.correct = out.checkErr == nil
	out.report = summary(c, final, out)
	return out, nil
}

// endToEnd computes the user-visible metrics of the untraced pass.
func endToEnd(p phase, setups []float64) ([]metric, error) {
	var lats []time.Duration
	failed := 0
	for _, r := range p.results {
		if r.failed() {
			failed++
			continue
		}
		lats = append(lats, r.lat)
	}
	n := float64(len(p.results))
	tp, _, ok := tailPercentile(len(lats))
	if !ok {
		return nil, fmt.Errorf("only %d successful ops: too few for a tail percentile", len(lats))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return []metric{
		{"setup_s", "s", median(setups)},
		{"latency_p50_ms", "ms", ms(percentile(lats, 50))},
		{"latency_tail_ms", "ms", ms(percentile(lats, tp))},
		{"throughput_ops_s", "ops/s", n / p.wall.Seconds()},
		{"cpu_ms_per_op", "ms", ms(p.cpu) / n},
		{"peak_rss_mb", "MB", rss},
		{"success_rate", "ratio", 1 - float64(failed)/n},
	}, nil
}

// digest folds every op's result digest into one SHA-256, in op order.
func digest(rs []result) string {
	h := sha256.New()
	for i, r := range rs {
		fmt.Fprintf(h, "%d %s %x\n", i, r.kind, r.sum)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// summary renders the per-kind failure accounting and the diagnostics.
func summary(c config, p phase, out *outcome) []string {
	lines := []string{fmt.Sprintf("perfbench %s seed=%d seconds=%d trace=%v ops=%d clients=%d wall=%.2fs",
		c.w.name, c.seed, c.seconds, c.trace, len(p.results), c.w.clients, p.wall.Seconds())}
	lines = append(lines, fmt.Sprintf("%-14s %9s %7s %10s  %s", "kind", "attempted", "failed", "p50_ms", "failures"))
	for _, k := range kindOrder(p.results) {
		att, fail := 0, 0
		var lats []time.Duration
		for _, r := range p.results {
			if r.kind == k {
				att++
				if r.failed() {
					fail++
				} else {
					lats = append(lats, r.lat)
				}
			}
		}
		lines = append(lines, fmt.Sprintf("%-14s %9d %7d %10.3f  %s", k, att, fail, ms(percentile(lats, 50)), failureCodes(p.results, k)))
	}
	var lats []time.Duration
	for _, r := range p.results {
		if !r.failed() {
			lats = append(lats, r.lat)
		}
	}
	if tp, beyond, ok := tailPercentile(len(lats)); ok {
		lines = append(lines, fmt.Sprintf("latency_tail_ms is p%g of %d successful ops (%d beyond it)", tp, len(lats), beyond))
	}
	lines = append(lines, "results_digest "+out.digest)
	if out.checkErr != nil {
		lines = append(lines, "output check FAILED: "+out.checkErr.Error())
	} else {
		lines = append(lines, "output checks passed")
	}
	return lines
}

func countLines(path string) int {
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return len(splitLines(blob))
}
