// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (see DESIGN.md's per-experiment index), plus ablations for the
// design choices the platform makes.  Key reproduced quantities are emitted
// as benchmark metrics (cycles, gates, percent) so `go test -bench` output
// doubles as the experiment log recorded in EXPERIMENTS.md.
package steac

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"steac/internal/ate"
	"steac/internal/bist"
	"steac/internal/brains"
	"steac/internal/core"
	"steac/internal/march"
	"steac/internal/memfault"
	"steac/internal/memory"
	"steac/internal/netlist"
	"steac/internal/obs"
	"steac/internal/obs/bench"
	"steac/internal/pattern"
	"steac/internal/scenario"
	"steac/internal/sched"
	"steac/internal/stil"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// --- shared fixtures -----------------------------------------------------

func parseSTIL(src string) (*testinfo.Core, error) { return stil.Parse(src) }

// dscChip generates the paper's chip.  Every call returns a fresh chip, so
// a benchmark may modify what it gets.
func dscChip(b *testing.B) *scenario.Chip {
	b.Helper()
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		b.Fatal(err)
	}
	return chip
}

// dscCore returns a fresh copy of one of the paper chip's Table-1 cores.
func dscCore(b *testing.B, name string) *testinfo.Core {
	b.Helper()
	for _, c := range dscChip(b).Cores {
		if c.Name == name {
			return c
		}
	}
	b.Fatalf("dsc chip has no core %s", name)
	return nil
}

// dscFlowInput is the paper chip's complete flow input.
func dscFlowInput(b *testing.B, verify bool) core.FlowInput {
	b.Helper()
	in, err := dscChip(b).FlowInput(verify)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func dscTests(b *testing.B) ([]sched.Test, sched.Resources) {
	b.Helper()
	chip := dscChip(b)
	tests, err := bench.ChipTests(chip)
	if err != nil {
		b.Fatal(err)
	}
	return tests, chip.Resources
}

// --- Table 1: core test information through the STIL hand-off -------------

func BenchmarkTable1CoreTestInfo(b *testing.B) {
	cores := dscChip(b).Cores
	for i := 0; i < b.N; i++ {
		stils, err := core.EmitSTIL(cores)
		if err != nil {
			b.Fatal(err)
		}
		ti := 0
		for _, src := range stils {
			c, err := parseSTIL(src)
			if err != nil {
				b.Fatal(err)
			}
			ti += c.TestInputs()
		}
		if ti != 18+6+1 {
			b.Fatalf("TI sum = %d", ti)
		}
	}
}

// --- §3 scheduling: the 4,371,194 vs 4,713,935 comparison ------------------

func BenchmarkScheduleSessionBased(b *testing.B) {
	tests, res := dscTests(b)
	var cycles int
	for i := 0; i < b.N; i++ {
		s, err := sched.SessionBasedContext(context.Background(), tests, res)
		if err != nil {
			b.Fatal(err)
		}
		cycles = s.TotalCycles
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(4371194, "paper-cycles")
}

func BenchmarkScheduleNonSessionBased(b *testing.B) {
	tests, res := dscTests(b)
	var cycles int
	for i := 0; i < b.N; i++ {
		s, err := sched.NonSessionBased(tests, res)
		if err != nil {
			b.Fatal(err)
		}
		cycles = s.TotalCycles
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(4713935, "paper-cycles")
}

func BenchmarkScheduleAblationSerial(b *testing.B) {
	tests, res := dscTests(b)
	var cycles int
	for i := 0; i < b.N; i++ {
		s, err := sched.Serial(tests, res)
		if err != nil {
			b.Fatal(err)
		}
		cycles = s.TotalCycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// --- §3 test IOs: 19 dedicated control pins, reduced by sharing ------------

func BenchmarkTestIOReduction(b *testing.B) {
	cores := dscChip(b).Cores
	var s testinfo.SharedControlIOs
	for i := 0; i < b.N; i++ {
		s = testinfo.ShareControlIOs(cores)
	}
	b.ReportMetric(float64(s.Dedicated), "dedicated-pins")
	b.ReportMetric(float64(s.SharedTotal), "shared-pins")
}

// --- §3 area: WBR 26 gates, controller ~371, TAM mux ~132, ~0.3% overhead --

func BenchmarkAreaOverhead(b *testing.B) {
	in := dscFlowInput(b, false)
	var ins = (*core.FlowResult)(nil)
	for i := 0; i < b.N; i++ {
		r, err := core.RunFlowContext(context.Background(), in)
		if err != nil {
			b.Fatal(err)
		}
		ins = r
	}
	b.ReportMetric(ins.Insertion.ControllerGates, "controller-gates")
	b.ReportMetric(ins.Insertion.TAMGates, "tammux-gates")
	b.ReportMetric(26, "wbr-gates")
	b.ReportMetric(ins.Insertion.OverheadPct, "overhead-pct")
}

// --- §3 runtime: "a DFT-ready SOC in 5 minutes" -----------------------------

func BenchmarkTestInsertionFlow(b *testing.B) {
	b.ReportAllocs()
	in := dscFlowInput(b, false)
	for i := 0; i < b.N; i++ {
		if _, err := core.RunFlowContext(context.Background(), in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 1: the end-to-end flow with full ATE verification ----------------

func BenchmarkFig1FlowEndToEnd(b *testing.B) {
	in := dscFlowInput(b, true)
	var cycles int
	for i := 0; i < b.N; i++ {
		r, err := core.RunFlowContext(context.Background(), in)
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Verify.Cycles
	}
	b.ReportMetric(float64(cycles), "ate-cycles")
}

// --- Fig. 2: shared-controller BIST over the heterogeneous memory set ------

func BenchmarkFig2MultiMemoryBIST(b *testing.B) {
	cfgs := dscChip(b).Memories
	var cycles int
	for i := 0; i < b.N; i++ {
		groups := make([]bist.Group, 0, 2)
		var sp, tp []bist.MemoryUnderTest
		for _, cfg := range cfgs {
			m, err := memory.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if cfg.Kind == memory.TwoPort {
				tp = append(tp, bist.MemoryUnderTest{RAM: m})
			} else {
				sp = append(sp, bist.MemoryUnderTest{RAM: m})
			}
		}
		groups = append(groups,
			bist.Group{Name: "sp", Alg: march.MarchCMinus(), Mems: sp},
			bist.Group{Name: "tp", Alg: march.MarchCMinus(), Mems: tp})
		eng, err := bist.NewEngine(groups, bist.Serial)
		if err != nil {
			b.Fatal(err)
		}
		r, err := eng.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if !r.Pass {
			b.Fatal("BIST failed on healthy memories")
		}
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "bist-cycles")
}

// --- Fig. 4: BRAINS integrated into STEAC -----------------------------------

func BenchmarkFig4BrainsIntegration(b *testing.B) {
	chip := dscChip(b)
	var cycles int
	for i := 0; i < b.N; i++ {
		br, err := brains.CompileContext(context.Background(), chip.Memories, chip.BIST)
		if err != nil {
			b.Fatal(err)
		}
		tests, err := sched.BuildTests(chip.Cores, core.BISTGroups(br))
		if err != nil {
			b.Fatal(err)
		}
		s, err := sched.SessionBasedContext(context.Background(), tests, chip.Resources)
		if err != nil {
			b.Fatal(err)
		}
		cycles = s.TotalCycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// --- §2 BRAINS: March efficiency by fault simulation -----------------------

func BenchmarkMarchCoverage(b *testing.B) {
	cfg := memory.Config{Name: "proxy", Words: 16, Bits: 4}
	faults := memfault.AllFaults(cfg)
	var pct float64
	for i := 0; i < b.N; i++ {
		camp, err := memfault.CoverageContext(context.Background(), march.MarchCMinus(), cfg, faults, memfault.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pct = camp.Percent()
	}
	b.ReportMetric(pct, "coverage-pct")
}

// Observability overhead: the identical campaign with span timing and
// pprof labels enabled (counters are always live, so the baseline above
// already pays for them).  EXPERIMENTS.md records the delta against
// BenchmarkMarchCoverage; the budget is <3% wall clock.
func BenchmarkMarchCoverageObs(b *testing.B) {
	obs.Enable()
	defer obs.Disable()
	cfg := memory.Config{Name: "proxy", Words: 16, Bits: 4}
	faults := memfault.AllFaults(cfg)
	var pct float64
	for i := 0; i < b.N; i++ {
		camp, err := memfault.CoverageContext(context.Background(), march.MarchCMinus(), cfg, faults, memfault.Options{})
		if err != nil {
			b.Fatal(err)
		}
		pct = camp.Percent()
	}
	b.ReportMetric(pct, "coverage-pct")
}

// Parallel fault-simulation campaign: worker scaling on a larger geometry
// (the 16x4 proxy finishes in microseconds and would only measure pool
// overhead).  Each sub-benchmark reports its speedup over the workers=1 run
// and cross-checks that the parallel campaign is bit-identical to serial.
func BenchmarkCoverageParallel(b *testing.B) {
	cfg := memory.Config{Name: "proxy", Words: 64, Bits: 8}
	faults := memfault.AllFaults(cfg)
	alg := march.MarchCMinus()

	serial, err := memfault.CoverageContext(context.Background(), alg, cfg, faults, memfault.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Serial reference timing for the speedup metric (best of 3 runs;
	// testing.Benchmark cannot nest inside a running benchmark).
	serialNs := math.MaxFloat64
	for r := 0; r < 3; r++ {
		start := time.Now()
		if _, err := memfault.CoverageContext(context.Background(), alg, cfg, faults, memfault.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
		if ns := float64(time.Since(start).Nanoseconds()); ns < serialNs {
			serialNs = ns
		}
	}

	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var camp memfault.Campaign
			for i := 0; i < b.N; i++ {
				c, err := memfault.CoverageContext(context.Background(), alg, cfg, faults, memfault.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				camp = c
			}
			if !reflect.DeepEqual(camp, serial) {
				b.Fatal("parallel campaign differs from serial")
			}
			b.ReportMetric(serialNs/(float64(b.Elapsed().Nanoseconds())/float64(b.N)), "speedup")
			b.ReportMetric(camp.Percent(), "coverage-pct")
		})
	}
}

// --- Ablations ---------------------------------------------------------------

// Wrapper chain design heuristics (DESIGN.md ablation).
func BenchmarkWrapperChainDesignLPT(b *testing.B)      { benchPartition(b, wrapper.LPT) }
func BenchmarkWrapperChainDesignFirstFit(b *testing.B) { benchPartition(b, wrapper.FirstFit) }
func BenchmarkWrapperChainDesignOptimal(b *testing.B)  { benchPartition(b, wrapper.Optimal) }

func benchPartition(b *testing.B, p wrapper.Partitioner) {
	usb := dscCore(b, "USB")
	var maxLen int
	for i := 0; i < b.N; i++ {
		plan, err := wrapper.DesignChains(usb, 3, p)
		if err != nil {
			b.Fatal(err)
		}
		maxLen = plan.MaxLength()
	}
	b.ReportMetric(float64(maxLen), "max-chain")
}

// Serial vs parallel memory BIST inside the BIST subsystem.
func BenchmarkBISTSchedulingAblation(b *testing.B) {
	for _, schedKind := range []bist.Schedule{bist.Serial, bist.Parallel} {
		b.Run(schedKind.String(), func(b *testing.B) {
			cfgs := dscChip(b).Memories
			var cycles int
			for i := 0; i < b.N; i++ {
				var groups []bist.Group
				for _, cfg := range cfgs {
					m, err := memory.New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					groups = append(groups, bist.Group{
						Name: cfg.Name, Alg: march.MarchCMinus(),
						Mems: []bist.MemoryUnderTest{{RAM: m}},
					})
				}
				eng, err := bist.NewEngine(groups, schedKind)
				if err != nil {
					b.Fatal(err)
				}
				r, err := eng.RunContext(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// Gate-level BIST generation cost (hardware side of Fig. 2).
func BenchmarkBISTNetlistGeneration(b *testing.B) {
	groups := []bist.GroupSpec{
		{Name: "sp", Alg: march.MarchCMinus(), Mems: dscChip(b).Memories[:4]},
	}
	var gates float64
	for i := 0; i < b.N; i++ {
		d := netlist.NewDesign("bench", nil)
		_, area, err := bist.GenerateBIST(d, "membist", groups)
		if err != nil {
			b.Fatal(err)
		}
		gates = area.Total()
	}
	b.ReportMetric(gates, "gates")
}

// Pattern translation throughput (the translator streams ~4.4M cycles in
// the full flow; here one scan core's stream is measured in isolation).
func BenchmarkPatternTranslation(b *testing.B) {
	tv := dscCore(b, "TV")
	tv.Patterns = tv.Patterns[:1] // scan set only
	src, err := pattern.NewATPG(tv)
	if err != nil {
		b.Fatal(err)
	}
	res := sched.Resources{TestPins: 12, FuncPins: 4, Partitioner: wrapper.LPT}
	tests, err := sched.BuildTests([]*testinfo.Core{tv}, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := pattern.Translate(s, map[string]pattern.Source{"TV": src}, res)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := prog.Stream(prog.Sessions[0], func(c int, cyc *pattern.Cycle) bool {
			n++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if n != prog.Sessions[0].Cycles {
			b.Fatalf("streamed %d cycles", n)
		}
	}
}

// ATE application throughput on the miniature chip.
func BenchmarkATEApplication(b *testing.B) {
	tv := dscCore(b, "TV")
	tv.Patterns = []testinfo.PatternSet{{Name: "scan", Type: testinfo.Scan, Count: 20, Seed: 9}}
	src, err := pattern.NewATPG(tv)
	if err != nil {
		b.Fatal(err)
	}
	res := sched.Resources{TestPins: 12, FuncPins: 4, Partitioner: wrapper.LPT}
	tests, err := sched.BuildTests([]*testinfo.Core{tv}, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := pattern.Translate(s, map[string]pattern.Source{"TV": src}, res)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chip := ate.NewChip(prog, []*testinfo.Core{tv})
		r, err := ate.Run(prog, chip)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Pass {
			b.Fatal("healthy chip failed")
		}
	}
}

// Scheduler scaling on generated chips of 4 to 32 cores: runtime of the
// session-based scheduler (exhaustive partitions up to 10 cores, greedy
// beyond) and the persistent session-vs-non-session gap.
func BenchmarkSyntheticSchedulers(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			chip, tests, err := bench.SizedChip(n)
			if err != nil {
				b.Fatal(err)
			}
			res := chip.Resources
			// One TAM wire beyond the dedicated control pins: the tightest
			// budget the non-session baseline can meet, so IO pressure
			// matters while the session-based scheduler recovers pins
			// through sharing.
			res.TestPins = sched.ControlPins(chip.Cores, true, false) + 2
			var sb, nsb int
			for i := 0; i < b.N; i++ {
				s, err := sched.SessionBasedContext(context.Background(), tests, res)
				if err != nil {
					b.Fatal(err)
				}
				sb = s.TotalCycles
				ns, err := sched.NonSessionBased(tests, res)
				if err != nil {
					b.Fatal(err)
				}
				nsb = ns.TotalCycles
			}
			b.ReportMetric(float64(sb), "session-cycles")
			b.ReportMetric(float64(nsb), "nonsession-cycles")
		})
	}
}

// Parallel session-partition search: worker scaling of the exact
// branch-and-bound on a 9-core chip (Bell(9) = 21,147 partitions).
// The schedule must be identical for every worker count.
func BenchmarkSessionSearchParallel(b *testing.B) {
	chip, tests, err := bench.SizedChip(9)
	if err != nil {
		b.Fatal(err)
	}
	res := chip.Resources
	res.Workers = 1
	ref, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			res := res
			res.Workers = w
			var total int
			for i := 0; i < b.N; i++ {
				s, err := sched.SessionBasedContext(context.Background(), tests, res)
				if err != nil {
					b.Fatal(err)
				}
				total = s.TotalCycles
			}
			if total != ref.TotalCycles {
				b.Fatalf("workers=%d total %d != serial %d", w, total, ref.TotalCycles)
			}
			b.ReportMetric(float64(total), "session-cycles")
		})
	}
}

// Tester-file emission throughput (the chip-level pattern hand-off).
func BenchmarkProgramFileWrite(b *testing.B) {
	tv := dscCore(b, "TV")
	tv.Patterns = []testinfo.PatternSet{{Name: "scan", Type: testinfo.Scan, Count: 50, Seed: 9}}
	src, err := pattern.NewATPG(tv)
	if err != nil {
		b.Fatal(err)
	}
	res := sched.Resources{TestPins: 12, FuncPins: 4, Partitioner: wrapper.LPT}
	tests, err := sched.BuildTests([]*testinfo.Core{tv}, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sched.SessionBasedContext(context.Background(), tests, res)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := pattern.Translate(s, map[string]pattern.Source{"TV": src}, res)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		cw := countWriter{&n}
		if err := pattern.WriteProgramFile(cw, prog); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(n)
	}
}

type countWriter struct{ n *int64 }

func (w countWriter) Write(p []byte) (int, error) {
	*w.n += int64(len(p))
	return len(p), nil
}

// EXTEST interconnect-test session cost on the DSC chip (24 glue wires).
func BenchmarkExtestInterconnect(b *testing.B) {
	chip := dscChip(b)
	wires, err := chip.Interconnects()
	if err != nil {
		b.Fatal(err)
	}
	var cycles, vectors int
	for i := 0; i < b.N; i++ {
		lane, err := pattern.BuildExtest(chip.Cores, wires, nil, wrapper.LPT)
		if err != nil {
			b.Fatal(err)
		}
		cycles, vectors = lane.Cycles, lane.Vectors
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(vectors), "vectors")
}

// Port-B verification cost across the DSC's two-port macros.
func BenchmarkPortBVerification(b *testing.B) {
	var twoPort []memory.Config
	for _, m := range dscChip(b).Memories {
		if m.Kind == memory.TwoPort {
			twoPort = append(twoPort, m)
		}
	}
	var cycles int
	for i := 0; i < b.N; i++ {
		res, err := brains.CompileContext(context.Background(), twoPort, brains.Options{PortBTest: true})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := brains.NewEngine(res, nil)
		if err != nil {
			b.Fatal(err)
		}
		r, err := eng.RunContext(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if !r.Pass {
			b.Fatal("port-B self test failed")
		}
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// Verilog netlist I/O throughput on the DFT-inserted DSC design.
func BenchmarkVerilogRoundTrip(b *testing.B) {
	soc, err := dscChip(b).BuildSOC()
	if err != nil {
		b.Fatal(err)
	}
	v, err := soc.EmitVerilogString()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(v)))
	for i := 0; i < b.N; i++ {
		back, err := netlist.ParseVerilog(v, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := back.EmitVerilogString(); err != nil {
			b.Fatal(err)
		}
	}
}

// Wrapper-partitioner effect on the whole DSC schedule (ablation from
// DESIGN.md): LPT vs first-fit chain assignment.
func BenchmarkScheduleAblationPartitioner(b *testing.B) {
	for _, part := range []wrapper.Partitioner{wrapper.LPT, wrapper.FirstFit} {
		b.Run(part.String(), func(b *testing.B) {
			tests, res := dscTests(b)
			res.Partitioner = part
			var cycles int
			for i := 0; i < b.N; i++ {
				s, err := sched.SessionBasedContext(context.Background(), tests, res)
				if err != nil {
					b.Fatal(err)
				}
				cycles = s.TotalCycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// Soft-core rebalancing ablation (paper §2 feedback loop): USB as a hard
// vs soft core at TAM width 4.
func BenchmarkSoftCoreRebalancing(b *testing.B) {
	hard := dscCore(b, "USB")
	soft := dscCore(b, "USB")
	soft.Soft = true
	var hardCycles, softCycles int
	for i := 0; i < b.N; i++ {
		hp, err := wrapper.DesignChains(hard, 4, wrapper.LPT)
		if err != nil {
			b.Fatal(err)
		}
		hardCycles = hp.ScanTestCycles(716)
		_, sp, err := wrapper.Rebalance(soft, 4)
		if err != nil {
			b.Fatal(err)
		}
		softCycles = sp.ScanTestCycles(716)
	}
	b.ReportMetric(float64(hardCycles), "hard-cycles")
	b.ReportMetric(float64(softCycles), "soft-cycles")
}
