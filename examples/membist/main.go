// Memory BIST with BRAINS: compile the BIST subsystem for a heterogeneous
// memory set, compare March algorithms by fault simulation, and run a
// go/no-go self test with an injected manufacturing defect.
package main

import (
	"context"
	"fmt"
	"log"

	"steac/internal/brains"
	"steac/internal/march"
	"steac/internal/memfault"
	"steac/internal/memory"
)

func main() {
	mems := []memory.Config{
		{Name: "framebuf", Words: 16384, Bits: 16},
		{Name: "linebuf0", Words: 990, Bits: 16},
		{Name: "linebuf1", Words: 990, Bits: 16},
		{Name: "scratch", Words: 2048, Bits: 8},
		{Name: "fifo", Words: 512, Bits: 32, Kind: memory.TwoPort},
	}

	// 1. Compile: group by port kind, bound the test power.
	res, err := brains.CompileContext(context.Background(), mems, brains.Options{
		Algorithm: march.MarchCMinus(),
		Grouping:  brains.GroupByKind,
		MaxPower:  20,
		ClockMHz:  100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(brains.Report(res))
	fmt.Println()

	// 2. Evaluate March efficiency by exhaustive fault simulation on a
	// small proxy geometry (the trade-off BRAINS shows its users).
	rows, err := brains.EvaluateContext(context.Background(), memory.Config{Name: "proxy", Words: 16, Bits: 4}, nil, brains.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(brains.EvaluationTable(rows))
	fmt.Println()

	// 3. Self-test: healthy chip passes, a defective macro is caught and
	// diagnosed down to the failing address.
	eng, err := brains.NewEngine(res, nil)
	if err != nil {
		log.Fatal(err)
	}
	healthy, err := eng.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healthy self-test: pass=%t in %d cycles\n", healthy.Pass, healthy.Cycles)

	faulty, err := memfault.NewFaulty(mems[0], []memfault.Fault{
		{Kind: memfault.CFin,
			Victim:   memfault.Cell{Addr: 1234, Bit: 7},
			Aggr:     memfault.Cell{Addr: 1235, Bit: 7},
			AggrRise: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	eng2, err := brains.NewEngine(res, map[string]memory.RAM{"framebuf": faulty})
	if err != nil {
		log.Fatal(err)
	}
	eng2.EnableDiagnosis(0)
	r, err := eng2.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range r.Mems {
		if !m.Pass {
			fmt.Printf("defective self-test: %s FAILED at address %d (cycle %d) — coupling fault caught\n",
				m.Name, m.FirstFail.Addr, m.FirstFail.Cycle)
		}
	}
	for _, d := range eng2.Diagnoses() {
		fmt.Printf("diagnosis bitmap: %s\n", d)
	}

	// 4. A column defect (bit line short) classifies differently: the
	// bitmap signature drives repair/redundancy decisions.
	colCfg := mems[3] // scratch, 2048x8
	var colFaults []memfault.Fault
	for a := 0; a < colCfg.Words; a++ {
		colFaults = append(colFaults, memfault.Fault{
			Kind: memfault.SA0, Victim: memfault.Cell{Addr: a, Bit: 6}})
	}
	colRAM, err := memfault.NewFaulty(colCfg, colFaults)
	if err != nil {
		log.Fatal(err)
	}
	eng3, err := brains.NewEngine(res, map[string]memory.RAM{"scratch": colRAM})
	if err != nil {
		log.Fatal(err)
	}
	eng3.EnableDiagnosis(0)
	if _, err := eng3.RunContext(context.Background()); err != nil {
		log.Fatal(err)
	}
	for _, d := range eng3.Diagnoses() {
		fmt.Printf("diagnosis bitmap: %s\n", d)
	}
}
