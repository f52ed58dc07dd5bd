// Command steac runs the SOC Test Aid Console on user-supplied STIL files:
// it parses each core's test information, schedules the core tests into
// sessions under the given pin and power budgets, and prints the schedule,
// the baselines, and the test-IO analysis.  This is the generic entry point
// of the platform; cmd/dscflow drives the same flow on the paper's chip.
//
// Usage:
//
//	steac -pins 26 -funcpins 300 -power 34 core1.stil core2.stil ...
//	steac -emit USB                   # print a Table-1 core's STIL to stdout
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"steac/internal/core"
	"steac/internal/dsc"
	"steac/internal/netlist"
	"steac/internal/sched"
	"steac/internal/wrapper"
)

func main() {
	var (
		pins     = flag.Int("pins", 26, "dedicated test pin budget (TAM data + control)")
		funcpins = flag.Int("funcpins", 300, "pads reachable by functional-test muxing")
		power    = flag.Float64("power", 0, "test power budget (0 = unbounded)")
		part     = flag.String("partition", "lpt", "wrapper chain partitioner: lpt|firstfit|optimal")
		emit     = flag.String("emit", "", "emit a Table-1 core's STIL (USB, TV or JPEG) and exit")
		socPath  = flag.String("soc", "", "structural Verilog netlist of the SOC (instance convention: u_<core> of core_<core>); enables test insertion")
		outPath  = flag.String("out", "", "write the DFT-inserted netlist (Verilog) to this path (requires -soc)")
	)
	flag.Parse()

	if *emit != "" {
		cores := map[string]int{"USB": 0, "TV": 1, "JPEG": 2}
		idx, ok := cores[*emit]
		if !ok {
			fail(fmt.Errorf("unknown core %q (USB, TV or JPEG)", *emit))
		}
		stils, err := core.EmitSTIL(dsc.Cores())
		fail(err)
		fmt.Print(stils[idx])
		return
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "steac: no STIL files given (try -emit USB > usb.stil)")
		os.Exit(2)
	}
	var stils []string
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		fail(err)
		stils = append(stils, string(src))
	}

	p, err := wrapper.ParsePartitioner(*part)
	fail(err)

	in := core.FlowInput{
		STIL: stils,
		Resources: sched.Resources{
			TestPins: *pins, FuncPins: *funcpins, MaxPower: *power, Partitioner: p,
		},
	}
	if *socPath != "" {
		src, err := os.ReadFile(*socPath)
		fail(err)
		soc, err := netlist.ParseVerilog(string(src), nil)
		fail(err)
		in.SOC = soc
	}
	res, err := core.RunFlowContext(context.Background(), in)
	fail(err)
	if *outPath != "" {
		if res.Insertion == nil {
			fail(fmt.Errorf("-out requires -soc"))
		}
		f, err := os.Create(*outPath)
		fail(err)
		fail(res.Insertion.Design.EmitVerilog(f))
		fail(f.Close())
		fmt.Printf("DFT netlist written to %s\n", *outPath)
	}

	fmt.Print(core.Table1(res.Cores))
	fmt.Println()
	fmt.Print(core.ComparisonReport(res))
	fmt.Println()
	fmt.Print(core.ScheduleReport(res.Schedule))
	fmt.Println()
	fmt.Print(core.IOReport(res.Cores))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "steac:", err)
		os.Exit(1)
	}
}
