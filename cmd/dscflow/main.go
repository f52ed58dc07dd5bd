// Command dscflow is the one-shot reproduction driver: it rebuilds the
// paper's DSC controller chip, runs the full STEAC flow on it, and prints
// every table and figure of the evaluation — Table 1, the session-based vs
// non-session-based scheduling comparison, the test-IO analysis, the DFT
// hardware cost, the BIST plan, and the March-efficiency table.
//
// Usage:
//
//	dscflow                  run everything except ATE verification
//	dscflow -verify          also apply all ~4.4M tester cycles (≈5 s)
//	dscflow -table1 ...      print individual sections only
//	dscflow -scenario NAME   run the flow on a registry scenario (or a JSON spec file)
//	dscflow -scenarios       list the registered chip scenarios and exit
//	dscflow -obs             append the observability report (span tree + counters)
//	dscflow -bench-json F    run the benchmark suite and write BENCH JSON to F
//	dscflow -campaign F      run a checkpointable fault campaign from a JSON spec file
//	dscflow -resume DIR      resume a checkpointed campaign from its directory
//	dscflow -campaign F -fabric URL   submit the campaign to a fabric coordinator daemon instead
//	dscflow -campaign F -submit URL   submit the campaign as an async job on a steacd daemon
//	dscflow -api-key KEY     authenticate -fabric/-submit calls against a multi-tenant daemon
//	dscflow -report-json F   also write the raw campaign report JSON to F
//	dscflow -catalog DIR -compare csv          render a steacd results catalog as a tradeoff table
//	dscflow -catalog DIR -recommend -scenario NAME   suggest a DFT config from prior results
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"steac/internal/brains"
	"steac/internal/core"
	"steac/internal/dsc"
	"steac/internal/memory"
	"steac/internal/obs"
	"steac/internal/obs/bench"
	"steac/internal/pattern"
	"steac/internal/report"
	"steac/internal/scenario"
	"steac/internal/testinfo"
	"steac/internal/xcheck"
)

func main() {
	var (
		table1   = flag.Bool("table1", false, "print Table 1 only")
		schedOn  = flag.Bool("schedule", false, "print the scheduling comparison only")
		ioOn     = flag.Bool("io", false, "print the test-IO analysis only")
		areaOn   = flag.Bool("area", false, "print the DFT hardware cost only")
		bistOn   = flag.Bool("bist", false, "print the BIST plan only")
		marchOn  = flag.Bool("march", false, "print the March-efficiency table only")
		verify   = flag.Bool("verify", false, "apply the translated patterns on the tester model")
		verilog  = flag.Bool("verilog", false, "emit the DFT-ready netlist to stdout")
		ateprog  = flag.String("ateprog", "", "write the chip-level tester program (cycle-based ATE file) to this path — the full DSC program is ~4.4M vector lines")
		extest   = flag.Bool("extest", false, "append the EXTEST interconnect-test session (24 glue wires, 10 vectors)")
		xcheckOn = flag.Bool("xcheck", false, "gate-level differential verification: cross-check every generated DFT netlist against its behavioural model and run stuck-at fault campaigns")
		workers  = flag.Int("workers", 0, "worker goroutines for fault simulation and schedule search (0 = all CPUs)")

		scenarioF = flag.String("scenario", "dsc", "chip scenario: a registered name (see -scenarios) or the path of a JSON spec file")
		chipSeed  = flag.Int64("seed", 0, "generator seed for randomized scenarios (the dsc scenario is fully pinned and seed-invariant)")
		listScen  = flag.Bool("scenarios", false, "list the registered chip scenarios and exit")

		campaignF = flag.String("campaign", "", "run a checkpointable fault campaign described by this JSON spec file (see cmd/dscflow/campaign.go)")
		resumeDir = flag.String("resume", "", "resume a checkpointed campaign from this directory (kind and spec come from its manifest)")
		checkDir  = flag.String("checkpoint", "", "checkpoint directory for -campaign (empty = in-memory, nothing survives the process)")
		shardSize = flag.Int("shard-size", 0, "campaign checkpoint shard granularity in faults (0 = default)")
		fabricURL = flag.String("fabric", "", "submit -campaign to the steacd coordinator daemon at this URL (shards run on fabric nodes) and poll it to completion")
		submitURL = flag.String("submit", "", "submit -campaign as an async job on the steacd daemon at this URL (runs on its local pool) and poll it to completion")
		apiKey    = flag.String("api-key", "", "API key for -fabric/-submit against a multi-tenant daemon (also honors STEAC_API_KEY)")
		reportOut = flag.String("report-json", "", "write the raw campaign report JSON to this path (local and remote modes)")

		catalogDir  = flag.String("catalog", "", "local results-catalog directory (a steacd -catalog-dir) for -recommend and -compare")
		recommendOn = flag.Bool("recommend", false, "suggest a DFT config for the -scenario chip from the -catalog prior results")
		compareFmt  = flag.String("compare", "", "render the -catalog tradeoff table to stdout in this format (json, csv, html or table)")
		maxTam      = flag.Int("max-tam", 0, "cap on recommended TAM width (-recommend; 0 = no cap)")

		obsOn     = flag.Bool("obs", false, "enable observability and append the span/counter report")
		benchJSON = flag.String("bench-json", "", "run the benchmark suite (instead of the flow) and write BENCH JSON to this path")
	)
	flag.Parse()
	all := !(*table1 || *schedOn || *ioOn || *areaOn || *bistOn || *marchOn || *verilog || *xcheckOn)

	if *listScen {
		fmt.Print(scenarioList())
		return
	}
	if *benchJSON != "" {
		runBench(*benchJSON)
		return
	}
	if *recommendOn || *compareFmt != "" {
		if *catalogDir == "" {
			fail(fmt.Errorf("-recommend and -compare need -catalog DIR"))
		}
		if *compareFmt != "" {
			fail(runCompareCLI(*catalogDir, *compareFmt))
			return
		}
		fail(runRecommendCLI(*catalogDir, *scenarioF, *chipSeed, *maxTam))
		return
	}
	if *fabricURL != "" || *submitURL != "" {
		if *fabricURL != "" && *submitURL != "" {
			fail(fmt.Errorf("-fabric and -submit are mutually exclusive"))
		}
		base, useFabric := *submitURL, false
		if *fabricURL != "" {
			base, useFabric = *fabricURL, true
		}
		key := *apiKey
		if key == "" {
			key = os.Getenv("STEAC_API_KEY")
		}
		fail(runRemoteCLI(*campaignF, base, key, *shardSize, *workers, useFabric, *reportOut))
		return
	}
	if *campaignF != "" || *resumeDir != "" {
		fail(runCampaignCLI(*campaignF, *resumeDir, *checkDir, *shardSize, *workers, *reportOut))
		return
	}
	if *obsOn {
		obs.Enable()
	}

	chip, err := loadChip(*scenarioF, *chipSeed)
	fail(err)
	in, err := chip.FlowInput(*verify)
	fail(err)
	in.BISTOptions.Workers = *workers
	in.Resources.Workers = *workers
	if *extest {
		if chip.Scenario != "dsc" {
			fail(fmt.Errorf("-extest models the DSC glue interconnects and is only available for -scenario dsc"))
		}
		in.Interconnects = dsc.Interconnects()
	}
	res, err := core.RunFlowContext(context.Background(), in)
	fail(err)
	if *extest && (all || *schedOn) {
		fmt.Printf("EXTEST interconnect session: %d glue wires, %d vectors, %s cycles\n\n",
			len(res.Extest.Wires), res.Extest.Vectors, report.Comma(res.Extest.Cycles))
	}

	if all || *table1 {
		fmt.Print(core.Table1(res.Cores))
		fmt.Println()
	}
	if all || *schedOn {
		fmt.Print(core.ComparisonReport(res))
		fmt.Println()
		fmt.Print(core.ScheduleReport(res.Schedule))
		fmt.Println()
		fmt.Print(core.TimelineReport(res.Schedule, 72))
		fmt.Println()
	}
	if all || *ioOn {
		fmt.Print(core.IOReport(res.Cores))
		fmt.Println()
	}
	if all || *areaOn {
		fmt.Print(core.AreaReport(res))
		fmt.Println()
	}
	if all || *bistOn {
		fmt.Print(brains.Report(res.Brains))
		fmt.Println()
	}
	if all || *marchOn {
		rows, err := brains.EvaluateContext(context.Background(),
			memory.Config{Name: "eval", Words: 16, Bits: 4}, nil, brains.Options{Workers: *workers})
		fail(err)
		fmt.Print(brains.EvaluationTable(rows))
		fmt.Println()
	}
	if *xcheckOn {
		fail(runXCheck(res, chip, *workers))
	}
	if *verify && res.Verify != nil {
		fmt.Printf("ATE verification: PASS, %s cycles applied, 0 mismatches\n",
			report.Comma(res.Verify.Cycles))
	}
	if *verilog {
		fail(res.Insertion.Design.EmitVerilog(os.Stdout))
	}
	if *ateprog != "" {
		f, err := os.Create(*ateprog)
		fail(err)
		fail(pattern.WriteProgramFile(f, res.Program))
		fail(f.Close())
		fmt.Printf("tester program written to %s (%s cycles)\n",
			*ateprog, report.Comma(res.Program.TotalCycles()))
	}
	if *obsOn {
		obs.WriteReport(os.Stdout)
	}
}

// runBench is the -bench-json mode: it executes the paper-table benchmark
// suite and writes the schema-versioned BENCH file `benchdiff` consumes.
func runBench(path string) {
	f, err := bench.RunSuite(false, func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	})
	fail(err)
	data, err := f.Canonical()
	fail(err)
	fail(os.WriteFile(path, data, 0o644))
	fmt.Printf("benchmark trajectory written to %s (%d ops, git %s)\n",
		path, len(f.Ops), f.GitRev)
}

// loadChip resolves the -scenario argument: the path of a JSON spec file
// when one exists there, otherwise a registered scenario name.
func loadChip(arg string, seed int64) (*scenario.Chip, error) {
	if data, err := os.ReadFile(arg); err == nil {
		spec, err := scenario.LoadSpec(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", arg, err)
		}
		return scenario.Generate(spec, seed)
	}
	return scenario.GenerateByName(arg, seed)
}

// scenarioList renders the -scenarios listing: every registered scenario
// with its resolved description and the knobs that shape its chips.
func scenarioList() string {
	var b strings.Builder
	b.WriteString("registered chip scenarios (run one with -scenario NAME [-seed N]):\n\n")
	for _, name := range scenario.Names() {
		spec, err := scenario.Resolve(name)
		if err != nil {
			fmt.Fprintf(&b, "  %-14s unresolvable: %v\n", name, err)
			continue
		}
		raw, _ := scenario.Lookup(name)
		fmt.Fprintf(&b, "  %-14s %s\n", name, spec.Description)
		var traits []string
		if raw != nil && raw.Base != "" {
			traits = append(traits, "base "+raw.Base)
		}
		traits = append(traits,
			fmt.Sprintf("%d core template(s)", len(spec.Cores)),
			fmt.Sprintf("%d memory template(s)", len(spec.Memories)))
		if spec.Resources != nil {
			traits = append(traits, fmt.Sprintf("%d test pins", spec.Resources.TestPins))
			if spec.Resources.PowerBudget > 0 {
				traits = append(traits, fmt.Sprintf("power budget %g", spec.Resources.PowerBudget))
			}
		}
		if spec.LogicBIST != nil && spec.LogicBIST.Fraction > 0 {
			traits = append(traits, "hybrid logic BIST")
		}
		fmt.Fprintf(&b, "  %-14s %s\n\n", "", strings.Join(traits, ", "))
	}
	return b.String()
}

// runXCheck is the -xcheck section: differential equivalence of every
// generated sequencer+TPG bench (each planned BIST group, plus one
// multi-memory lockstep pair when the chip has two same-geometry macros),
// the shared controller, and the cheapest scanned core's full wrapper
// stack — then stuck-at campaigns on the small real macros, the
// controller, and that wrapper.  On the dsc scenario this reproduces the
// paper driver exactly: pair-scr1+scr2, wrap_TV w=2, and exhaustive
// campaigns on extfifo and scr2.
func runXCheck(res *core.FlowResult, chip *scenario.Chip, workers int) error {
	ctx := context.Background()
	opts := xcheck.Options{Workers: workers}
	rep := &xcheck.Report{}

	cases := make([]xcheck.GroupCase, len(res.Brains.Groups))
	alg := res.Brains.Opts.Algorithm
	for i, g := range res.Brains.Groups {
		cases[i] = xcheck.GroupCase{Name: g.Name, Alg: g.Alg, Mems: g.Mems}
	}
	// One multi-memory group: two small macros in lockstep on one sequencer.
	if pair, ok := chip.PairMemories(); ok {
		cases = append(cases, xcheck.GroupCase{
			Name: fmt.Sprintf("pair-%s+%s", pair[0].Name, pair[1].Name), Alg: alg,
			Mems: pair[:],
		})
	}
	eq, err := xcheck.VerifyGroupsContext(ctx, cases, opts)
	if err != nil {
		return err
	}
	rep.Equiv = eq
	ctl, err := xcheck.VerifyControllerContext(ctx, "controller", len(res.Brains.Groups), opts)
	if err != nil {
		return err
	}
	rep.Equiv = append(rep.Equiv, ctl)
	wcore := chip.WrapperCore()
	wname := ""
	if wcore != nil {
		wname = fmt.Sprintf("wrap_%s w=2", wcore.Name)
		wres, _, err := xcheck.VerifyWrapperContext(ctx, wname, wcore, 2, opts)
		if err != nil {
			return err
		}
		rep.Equiv = append(rep.Equiv, wres)
	}

	// Campaigns: exhaustive on the two smallest real macros, the shared
	// controller, and (sampled, 8-pattern program) the wrapper stack.
	for _, m := range chip.SmallestMemories(2) {
		camp, err := xcheck.TPGCampaignContext(ctx, m.Name, alg, []memory.Config{m}, opts)
		if err != nil {
			return err
		}
		rep.Campaigns = append(rep.Campaigns, camp)
	}
	ctlCamp, err := xcheck.ControllerCampaignContext(ctx, "controller", len(res.Brains.Groups), opts)
	if err != nil {
		return err
	}
	rep.Campaigns = append(rep.Campaigns, ctlCamp)
	if wcore != nil {
		wopts := opts
		wopts.MaxFaults = 128
		wopts.MaxPatterns = 8
		wcamp, err := xcheck.WrapperCampaignContext(ctx, wname, wcore, 2, wopts)
		if err != nil {
			return err
		}
		rep.Campaigns = append(rep.Campaigns, wcamp)
	}

	xcheck.WriteReport(os.Stdout, rep)
	if !rep.Pass() {
		return fmt.Errorf("gate-level cross-check FAILED")
	}
	return runPackedDifferential(cases, res, wcore, wname)
}

// runPackedDifferential replays a sampled stuck-at campaign on every
// generated design — each BIST-group bench (for the DSC chip: the 22
// per-memory benches), the lockstep pair, the shared controller and the
// wrapper stack — through both the word-packed kernel and the scalar
// reference, and fails on the first fault whose detection cycle differs.
// MaxFaults scales inversely with the padded memory size so the scalar
// replays stay affordable on the frame buffers while small macros still
// cover a full 63-lane word plus the remainder path.
func runPackedDifferential(cases []xcheck.GroupCase, res *core.FlowResult, wcore *testinfo.Core, wname string) error {
	ctx := context.Background()
	fmt.Println("packed-vs-scalar differential (sampled stuck-at campaigns)")
	designs, faults := 0, 0
	check := func(sim *xcheck.CampaignSim, err error) error {
		if err != nil {
			return err
		}
		n, err := sim.VerifyPackedScalar(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("  %-16s %4d/%d faults bit-identical\n", sim.Name(), n, sim.Sites())
		designs++
		faults += n
		return nil
	}
	for _, c := range cases {
		mf := 64
		for _, m := range xcheck.PadConfigs(c.Mems) {
			if budget := 64 * 4096 / m.Words; budget < mf {
				mf = max(budget, 8)
			}
		}
		if err := check(xcheck.NewTPGCampaignSim(c.Name, c.Alg, c.Mems, xcheck.Options{MaxFaults: mf})); err != nil {
			return err
		}
	}
	if err := check(xcheck.NewControllerCampaignSim("controller", len(res.Brains.Groups), xcheck.Options{MaxFaults: 128})); err != nil {
		return err
	}
	if wcore != nil {
		if err := check(xcheck.NewWrapperCampaignSim(wname, wcore, 2, xcheck.Options{MaxFaults: 48, MaxPatterns: 8})); err != nil {
			return err
		}
	}
	fmt.Printf("  %d designs, %d faults: packed kernels match the scalar reference\n", designs, faults)
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dscflow:", err)
		os.Exit(1)
	}
}
