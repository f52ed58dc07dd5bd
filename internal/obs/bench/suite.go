package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"steac/internal/ate"
	"steac/internal/bist"
	"steac/internal/core"
	"steac/internal/march"
	"steac/internal/memfault"
	"steac/internal/memory"
	"steac/internal/pattern"
	"steac/internal/scenario"
	"steac/internal/sched"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
	"steac/internal/xcheck"
)

// The suite measures the platform's expensive paths through their public
// entry points, one op per paper table/figure family (the same workloads as
// the root-package Benchmark* functions, sized so the full suite finishes
// in seconds).  Every op returns a `check` fingerprint of its functional
// result; RunSuite fails if iterations of one run disagree, and benchdiff
// flags disagreement between runs.

// opResult is what one measured iteration reports.
type opResult struct {
	work  int64
	unit  string
	check string
}

// spec is one suite operation: setup builds the workload once (untimed),
// the returned closure is the measured iteration.
type spec struct {
	name    string
	workers int
	setup   func() (func() (opResult, error), error)
}

func dscTests() ([]sched.Test, sched.Resources, error) {
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		return nil, sched.Resources{}, err
	}
	tests, err := ChipTests(chip)
	return tests, chip.Resources, err
}

func memoryConfig(name string) (memory.Config, error) {
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		return memory.Config{}, err
	}
	for _, cfg := range chip.Memories {
		if cfg.Name == name {
			return cfg, nil
		}
	}
	return memory.Config{}, fmt.Errorf("bench: no DSC memory %q", name)
}

func specs() []spec {
	return []spec{
		{name: "sched.session_search", workers: 1, setup: func() (func() (opResult, error), error) {
			tests, res, err := dscTests()
			if err != nil {
				return nil, err
			}
			res.Workers = 1
			return func() (opResult, error) {
				s, err := sched.SessionBasedContext(context.Background(), tests, res)
				if err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(s.TotalCycles), unit: "cycles",
					check: fmt.Sprintf("total_cycles=%d sessions=%d", s.TotalCycles, len(s.Sessions))}, nil
			}, nil
		}},
		{name: "sched.search_parallel", workers: 2, setup: func() (func() (opResult, error), error) {
			// Exact branch-and-bound over the Bell(9) = 21,147 partitions
			// of a 9-core chip; the result is identical for every worker
			// count.
			chip, tests, err := SizedChip(9)
			if err != nil {
				return nil, err
			}
			res := chip.Resources
			res.Workers = 2
			return func() (opResult, error) {
				s, err := sched.SessionBasedContext(context.Background(), tests, res)
				if err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(s.TotalCycles), unit: "cycles",
					check: fmt.Sprintf("total_cycles=%d sessions=%d", s.TotalCycles, len(s.Sessions))}, nil
			}, nil
		}},
		{name: "march.coverage", workers: 1, setup: func() (func() (opResult, error), error) {
			cfg := memory.Config{Name: "proxy", Words: 16, Bits: 4}
			faults := memfault.AllFaults(cfg)
			alg := march.MarchCMinus()
			return func() (opResult, error) {
				camp, err := memfault.CoverageContext(context.Background(), alg, cfg, faults, memfault.Options{Workers: 1})
				if err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(camp.Total), unit: "faults",
					check: fmt.Sprintf("detected=%d/%d", camp.Detected, camp.Total)}, nil
			}, nil
		}},
		{name: "march.coverage_parallel", workers: 2, setup: func() (func() (opResult, error), error) {
			// Identical workload to march.coverage (same geometry, fault
			// list and algorithm) so the two rows differ only in worker
			// count and their faults/s are directly comparable — the row
			// used to run a 32x8 geometry whose per-fault cost is ~4x the
			// serial row's 16x4, which made its throughput look like a
			// parallel slowdown (see EXPERIMENTS.md).  The campaign is
			// aggregated in fault-list order and is bit-identical for
			// every worker count.
			cfg := memory.Config{Name: "proxy", Words: 16, Bits: 4}
			faults := memfault.AllFaults(cfg)
			alg := march.MarchCMinus()
			return func() (opResult, error) {
				camp, err := memfault.CoverageContext(context.Background(), alg, cfg, faults, memfault.Options{Workers: 2})
				if err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(camp.Total), unit: "faults",
					check: fmt.Sprintf("detected=%d/%d", camp.Detected, camp.Total)}, nil
			}, nil
		}},
		{name: "bist.engine", workers: 1, setup: func() (func() (opResult, error), error) {
			chip, err := scenario.GenerateByName("dsc", 0)
			if err != nil {
				return nil, err
			}
			return func() (opResult, error) {
				var sp, tp []bist.MemoryUnderTest
				for _, cfg := range chip.Memories {
					m, err := memory.New(cfg)
					if err != nil {
						return opResult{}, err
					}
					if cfg.Kind == memory.TwoPort {
						tp = append(tp, bist.MemoryUnderTest{RAM: m})
					} else {
						sp = append(sp, bist.MemoryUnderTest{RAM: m})
					}
				}
				eng, err := bist.NewEngine([]bist.Group{
					{Name: "sp", Alg: march.MarchCMinus(), Mems: sp},
					{Name: "tp", Alg: march.MarchCMinus(), Mems: tp},
				}, bist.Serial)
				if err != nil {
					return opResult{}, err
				}
				r, err := eng.RunContext(context.Background())
				if err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(r.Cycles), unit: "cycles",
					check: fmt.Sprintf("pass=%v cycles=%d mems=%d", r.Pass, r.Cycles, len(r.Mems))}, nil
			}, nil
		}},
		{name: "pattern.translate", workers: 1, setup: func() (func() (opResult, error), error) {
			chip, err := scenario.GenerateByName("dsc", 0)
			if err != nil {
				return nil, err
			}
			tv := chip.Cores[1] // TV, Table 1's second core
			if tv.Name != "TV" {
				return nil, fmt.Errorf("bench: DSC core 1 is %s, not TV", tv.Name)
			}
			tv.Patterns = tv.Patterns[:1] // scan set only
			src, err := pattern.NewATPG(tv)
			if err != nil {
				return nil, err
			}
			res := sched.Resources{TestPins: 12, FuncPins: 4, Partitioner: wrapper.LPT}
			tests, err := sched.BuildTests([]*testinfo.Core{tv}, nil)
			if err != nil {
				return nil, err
			}
			s, err := sched.SessionBasedContext(context.Background(), tests, res)
			if err != nil {
				return nil, err
			}
			sources := map[string]pattern.Source{"TV": src}
			return func() (opResult, error) {
				prog, err := pattern.Translate(s, sources, res)
				if err != nil {
					return opResult{}, err
				}
				n := 0
				if err := prog.Stream(prog.Sessions[0], func(c int, cyc *pattern.Cycle) bool {
					n++
					return true
				}); err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(n), unit: "cycles",
					check: fmt.Sprintf("cycles=%d tam=%d", n, prog.TamWidth)}, nil
			}, nil
		}},
		{name: "ate.verify", workers: 1, setup: func() (func() (opResult, error), error) {
			// The sign-off tester stage alone: a generated P1500 chip's
			// translated program applied to its behavioural model.
			chip, err := scenario.GenerateByName("p1500-lbist", 4)
			if err != nil {
				return nil, err
			}
			in, err := chip.FlowInput(false)
			if err != nil {
				return nil, err
			}
			in.Resources.Workers = 1
			fr, err := core.RunFlowContext(context.Background(), in)
			if err != nil {
				return nil, err
			}
			return func() (opResult, error) {
				r, err := ate.Run(fr.Program, ate.NewChip(fr.Program, fr.Cores))
				if err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(r.Cycles), unit: "cycles",
					check: fmt.Sprintf("pass=%v cycles=%d mismatches=%d", r.Pass, r.Cycles, r.Mismatches)}, nil
			}, nil
		}},
		{name: "xcheck.equiv", workers: 1, setup: func() (func() (opResult, error), error) {
			cfg, err := memoryConfig("extfifo")
			if err != nil {
				return nil, err
			}
			alg := march.MarchCMinus()
			return func() (opResult, error) {
				r, err := xcheck.VerifyBISTContext(context.Background(), "extfifo", alg, []memory.Config{cfg}, xcheck.Options{Workers: 1})
				if err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(r.Cycles), unit: "cycles",
					check: fmt.Sprintf("pass=%v cycles=%d checks=%d gates=%d", r.Pass, r.Cycles, r.Checks, r.Gates)}, nil
			}, nil
		}},
		{name: "xcheck.campaign", workers: 2, setup: func() (func() (opResult, error), error) {
			cfg, err := memoryConfig("extfifo")
			if err != nil {
				return nil, err
			}
			alg := march.MarchCMinus()
			opts := xcheck.Options{Workers: 2, MaxFaults: 64}
			return func() (opResult, error) {
				camp, err := xcheck.TPGCampaignContext(context.Background(), "extfifo", alg, []memory.Config{cfg}, opts)
				if err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(camp.Total), unit: "faults",
					check: fmt.Sprintf("detected=%d/%d sites=%d", camp.Detected, camp.Total, camp.Sites)}, nil
			}, nil
		}},
		{name: "flow.insert", workers: 1, setup: func() (func() (opResult, error), error) {
			chip, err := scenario.GenerateByName("dsc", 0)
			if err != nil {
				return nil, err
			}
			in, err := chip.FlowInput(false)
			if err != nil {
				return nil, err
			}
			in.Resources.Workers = 1
			return func() (opResult, error) {
				r, err := core.RunFlowContext(context.Background(), in)
				if err != nil {
					return opResult{}, err
				}
				return opResult{work: int64(r.Schedule.TotalCycles), unit: "cycles",
					check: fmt.Sprintf("total_cycles=%d ctl_gates=%.0f tam_gates=%.0f overhead=%.4f%%",
						r.Schedule.TotalCycles, r.Insertion.ControllerGates,
						r.Insertion.TAMGates, r.Insertion.OverheadPct)}, nil
			}, nil
		}},
	}
}

// RunSuite executes every suite op and returns the run.  Full mode runs
// three measured iterations per op and keeps the fastest; short mode (the
// package's own tests) runs one.  Workloads are identical in both modes.
// logf, when non-nil, receives one progress line per op.
func RunSuite(short bool, logf func(format string, a ...any)) (*File, error) {
	iters := 3
	if short {
		iters = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f := NewFile(short)
	for _, sp := range specs() {
		run, err := sp.setup()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: setup: %w", sp.name, err)
		}
		// One untimed warmup settles lazy initialisation and cache state.
		if _, err := run(); err != nil {
			return nil, fmt.Errorf("bench: %s: warmup: %w", sp.name, err)
		}
		op := Op{Op: sp.name, Iters: iters, Workers: sp.workers}
		best := int64(math.MaxInt64)
		for i := 0; i < iters; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			r, err := run()
			ns := time.Since(t0).Nanoseconds()
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", sp.name, err)
			}
			if op.Check != "" && op.Check != r.check {
				return nil, fmt.Errorf("bench: %s: nondeterministic result: %q vs %q", sp.name, op.Check, r.check)
			}
			op.Check, op.Work, op.WorkUnit = r.check, r.work, r.unit
			if ns < best {
				best = ns
				op.WallNs = ns
				op.AllocsPerOp = int64(m1.Mallocs - m0.Mallocs)
				op.BytesPerOp = int64(m1.TotalAlloc - m0.TotalAlloc)
			}
		}
		if op.WallNs > 0 {
			op.WorkPerSec = float64(op.Work) / (float64(op.WallNs) / 1e9)
		}
		f.Ops = append(f.Ops, op)
		logf("bench: %-26s %12s  %s", op.Op,
			time.Duration(op.WallNs).Round(time.Microsecond), op.Check)
	}
	return f, nil
}
