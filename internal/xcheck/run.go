package xcheck

import (
	"context"
	"fmt"
	"io"

	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/par"
)

// GroupCase names one sequencer group to cross-check: the March algorithm
// its sequencer is programmed with and the memories its TPGs serve.
type GroupCase struct {
	Name string
	Alg  march.Algorithm
	Mems []memory.Config
}

// VerifyGroupsContext runs VerifyBISTContext over every case, fanned out over
// opts.Workers goroutines (par.Do), and returns the results in case order
// (the outcome is identical for any worker count — each case is
// independent).  A failing case stops further claims and its error, the
// first in case order, is returned wrapped with the stage name.
//
// Workers poll ctx at case claims, each case polls mid-session inside the gate-level simulation
// loop, and a canceled run returns ctx.Err() wrapped with the stage name.
func VerifyGroupsContext(ctx context.Context, cases []GroupCase, opts Options) ([]EquivResult, error) {
	results := make([]EquivResult, len(cases))
	err := par.Do(ctx, opts.Workers, len(cases), nil, func(_ struct{}, i int) (err error) {
		results[i], err = VerifyBISTContext(ctx, cases[i].Name, cases[i].Alg, cases[i].Mems, opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("xcheck: verify: %w", err)
	}
	return results, nil
}

// WriteReport renders a full cross-check report: the equivalence matrix,
// then each fault campaign with its undetected faults enumerated (the
// honest part of a coverage claim).
func WriteReport(w io.Writer, rep *Report) {
	if len(rep.Equiv) > 0 {
		fmt.Fprintln(w, "Gate-level differential verification (netlist vs behavioural reference)")
		var cycles, gates int
		var checks int64
		for _, e := range rep.Equiv {
			fmt.Fprintf(w, "  %s\n", e.String())
			for _, m := range e.Mismatches {
				fmt.Fprintf(w, "      %s\n", m.String())
			}
			for _, n := range e.Notes {
				fmt.Fprintf(w, "      note: %s\n", n)
			}
			cycles += e.Cycles
			gates += e.Gates
			checks += e.Checks
		}
		status := "all equivalent"
		if !rep.Pass() {
			status = "MISMATCHES FOUND"
		}
		fmt.Fprintf(w, "  %d designs, %d gates, %d cycles, %d pin checks: %s\n",
			len(rep.Equiv), gates, cycles, checks, status)
	}
	if len(rep.Campaigns) > 0 {
		fmt.Fprintln(w, "Stuck-at fault-injection campaigns (tester-visible detection)")
		const maxList = 24
		for _, c := range rep.Campaigns {
			fmt.Fprintf(w, "  %s\n", c.String())
			for i, f := range c.Undetected {
				if i == maxList {
					fmt.Fprintf(w, "      ... and %d more undetected\n", c.UndetectedCount()-maxList)
					break
				}
				fmt.Fprintf(w, "      undetected: %s/%s stuck-at-%d\n", f.Gate, f.Port, b2i(f.Value))
			}
		}
	}
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}
