// Package core is the STEAC platform itself — the SOC Test Aid Console of
// Fig. 1.  RunFlow executes the complete integration flow the paper
// describes: parse the cores' STIL test information, compile the memory
// BIST with BRAINS (Fig. 4), schedule the core tests into sessions under
// the chip's IO and power constraints, generate and insert the test
// wrappers, TAM and test controller into the SOC netlist, and translate the
// core-level patterns to chip level.  The optional verification step
// applies the translated patterns to the behavioural chip model on the
// tester model, which must pass with zero mismatches.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"steac/internal/ate"
	"steac/internal/brains"
	"steac/internal/insertion"
	"steac/internal/memory"
	"steac/internal/netlist"
	"steac/internal/obs"
	"steac/internal/pattern"
	"steac/internal/sched"
	"steac/internal/stil"
	"steac/internal/testinfo"
)

// FlowInput is everything the SOC integrator hands to STEAC.
type FlowInput struct {
	// STIL holds each core's test information as STIL source, keyed by an
	// arbitrary label (file name); this is the ATPG hand-off of Fig. 1.
	STIL []string
	// SOC is the original netlist (nil skips insertion).
	SOC *netlist.Design
	// Resources is the chip test-resource budget.
	Resources sched.Resources
	// Memories is the embedded SRAM inventory for BRAINS (empty skips
	// memory BIST).
	Memories []memory.Config
	// Interconnects lists the core-to-core glue wires to cover with an
	// EXTEST interconnect-test session (empty skips it).
	Interconnects []pattern.Interconnect
	// BISTOptions tunes the BRAINS compilation.
	BISTOptions brains.Options
	// ExtraBIST appends pre-planned fixed-length self-test groups — e.g. a
	// scenario's P1500 logic-core BIST sessions — to the schedulable BIST
	// set.  They co-schedule exactly like BRAINS sequencer groups (serial
	// behind the shared controller, filled into session slack) but carry no
	// generated netlist and need no pattern source.
	ExtraBIST []sched.BISTGroup
	// Verify applies the translated patterns on the tester model.
	Verify bool
}

// FlowResult is the full output of one STEAC run.
type FlowResult struct {
	Cores []*testinfo.Core

	Brains *brains.Result

	// Schedule is the session-based result STEAC uses; NonSession and
	// Serial are the baselines the paper compares against.
	Schedule   *sched.Schedule
	NonSession *sched.Schedule
	Serial     *sched.Schedule

	Insertion *insertion.Result
	Extest    *pattern.ExtestLane
	Program   *pattern.Program
	Sources   map[string]pattern.Source
	Verify    *ate.Result

	Elapsed time.Duration
}

// BISTGroups converts a BRAINS compilation into schedulable BIST tests: one
// per sequencer group, costing the March run plus the controller's
// group-advance cycle.
func BISTGroups(r *brains.Result) []sched.BISTGroup {
	if r == nil {
		return nil
	}
	groups := make([]sched.BISTGroup, len(r.Groups))
	for i, g := range r.Groups {
		groups[i] = sched.BISTGroup{
			Name:   g.Name,
			Cycles: brains.GroupCycles(g) + 1,
			Power:  brains.GroupPower(g),
		}
	}
	return groups
}

// Observability: the flow stages of Fig. 1 form the top-level span tree a
// `dscflow -obs` report (and a pprof profile's "span" label) is organized
// by.  Engine-internal spans (sched.session_based, memfault.coverage, ...)
// nest in time under these but live under their own package roots.
var (
	obsSpanFlow      = obs.GetSpan("flow")
	obsSpanParse     = obs.GetSpan("flow.parse")
	obsSpanBrains    = obs.GetSpan("flow.brains")
	obsSpanSchedule  = obs.GetSpan("flow.schedule")
	obsSpanExtest    = obs.GetSpan("flow.extest")
	obsSpanInsert    = obs.GetSpan("flow.insert")
	obsSpanTranslate = obs.GetSpan("flow.translate")
	obsSpanVerify    = obs.GetSpan("flow.verify")
	obsFlows         = obs.GetCounter("flow.runs")
	obsFlowCores     = obs.GetCounter("flow.cores_parsed")
)

// stage times one flow stage into its span; the closure form guarantees
// the span stops on every path, including error returns.  A context that
// is already done short-circuits the stage entirely, so a canceled flow
// stops at the next stage boundary even when the stage's engine predates
// context support.
func stage(ctx context.Context, s *obs.Span, f func() error) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("steac: %s: %w", s.Path(), err)
	}
	tm := s.Start()
	defer tm.Stop()
	return f()
}

// RunFlowContext executes the STEAC flow of Fig. 1.  Each
// stage checks ctx before starting, and the long-running engines (the
// session-partition search, BRAINS memory-fault grading) poll it at their
// batch boundaries, so a canceled flow returns promptly with ctx.Err()
// wrapped in the name of the stage it interrupted.  A canceled flow never
// returns a partial result.
func RunFlowContext(ctx context.Context, in FlowInput) (*FlowResult, error) {
	start := time.Now()
	tmFlow := obsSpanFlow.Start()
	defer tmFlow.Stop()
	res := &FlowResult{Sources: make(map[string]pattern.Source)}

	// 1. STIL Parser.
	if len(in.STIL) == 0 {
		return nil, fmt.Errorf("steac: no STIL inputs")
	}
	if err := stage(ctx, obsSpanParse, func() error {
		seen := make(map[string]bool)
		for i, src := range in.STIL {
			c, vecs, err := stil.ParseWithVectors(src)
			if err != nil {
				return fmt.Errorf("steac: STIL input %d: %w", i, err)
			}
			if seen[c.Name] {
				return fmt.Errorf("steac: duplicate core %q in STIL inputs", c.Name)
			}
			seen[c.Name] = true
			if c.Soft && (in.Verify || in.SOC != nil) {
				return fmt.Errorf("%w: core %q is soft (STIL input %d)", ErrSoftCore, c.Name, i)
			}
			res.Cores = append(res.Cores, c)
			// A file carrying explicit vectors supplies them directly; a file
			// carrying only generator annotations uses the ATPG substitute.
			if len(vecs.Scan) > 0 || len(vecs.Func) > 0 {
				if len(vecs.Scan) != c.ScanPatternCount() || len(vecs.Func) != c.FunctionalPatternCount() {
					return fmt.Errorf("steac: %s: %d/%d explicit vectors but pattern sets declare %d/%d",
						c.Name, len(vecs.Scan), len(vecs.Func),
						c.ScanPatternCount(), c.FunctionalPatternCount())
				}
				exp, err := pattern.FromSTIL(c, vecs)
				if err != nil {
					return fmt.Errorf("steac: %s: %w", c.Name, err)
				}
				res.Sources[c.Name] = exp
				continue
			}
			a, err := pattern.NewATPG(c)
			if err != nil {
				return err
			}
			res.Sources[c.Name] = a
		}
		obsFlowCores.Add(int64(len(res.Cores)))
		return nil
	}); err != nil {
		return nil, err
	}

	// 2. BRAINS memory BIST compilation (Fig. 4 integration).
	var bistGroups []sched.BISTGroup
	var bistDesign *netlist.Design
	bistTop := ""
	if len(in.Memories) > 0 {
		if err := stage(ctx, obsSpanBrains, func() error {
			b, err := brains.CompileContext(ctx, in.Memories, in.BISTOptions)
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return err
				}
				return fmt.Errorf("steac: BRAINS: %w", err)
			}
			res.Brains = b
			bistGroups = BISTGroups(b)
			bistDesign = b.Design
			bistTop = b.Top.Name
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// 3. Core Test Scheduler (+ the two baselines for comparison).
	if err := stage(ctx, obsSpanSchedule, func() error {
		tests, err := sched.BuildTests(res.Cores, append(bistGroups, in.ExtraBIST...))
		if err != nil {
			return err
		}
		if res.Schedule, err = sched.SessionBasedContext(ctx, tests, in.Resources); err != nil {
			if errors.Is(err, sched.ErrInfeasible) {
				return fmt.Errorf("steac: schedule: %w: %w", ErrBudgetExceeded, err)
			}
			return err
		}
		if res.NonSession, err = sched.NonSessionBased(tests, in.Resources); err != nil {
			return fmt.Errorf("steac: non-session baseline: %w", err)
		}
		if res.Serial, err = sched.Serial(tests, in.Resources); err != nil {
			return fmt.Errorf("steac: serial baseline: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// 3b. Interconnect (EXTEST) session, appended after the core sessions.
	if len(in.Interconnects) > 0 {
		if err := stage(ctx, obsSpanExtest, func() error {
			widths := make(map[string]int)
			for _, sess := range res.Schedule.Sessions {
				for _, pl := range sess.Placements {
					if pl.Test.Kind == sched.ScanKind {
						widths[pl.Test.Core.Name] = pl.Width
					}
				}
			}
			lane, err := pattern.BuildExtest(res.Cores, in.Interconnects, widths, in.Resources.Partitioner)
			if err != nil {
				return fmt.Errorf("steac: extest: %w", err)
			}
			res.Extest = lane
			res.Schedule.Sessions = append(res.Schedule.Sessions, sched.Session{
				Index:       len(res.Schedule.Sessions),
				Cycles:      lane.Cycles,
				ControlPins: sched.ControlPins(res.Cores, true, true),
				Placements: []sched.Placement{{
					Test:   sched.Test{ID: "chip.extest", Kind: sched.ExtestKind},
					Cycles: lane.Cycles,
				}},
			})
			res.Schedule.TotalCycles += lane.Cycles
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// 4. Test insertion: wrappers, TAM, controller, BIST into the SOC.
	if in.SOC != nil {
		if err := stage(ctx, obsSpanInsert, func() error {
			ins, err := insertion.Insert(in.SOC, res.Cores, res.Schedule, in.Resources, bistDesign, bistTop)
			if err != nil {
				return err
			}
			res.Insertion = ins
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// 5. Pattern translation to chip level.
	if err := stage(ctx, obsSpanTranslate, func() error {
		var err error
		if res.Program, err = pattern.Translate(res.Schedule, res.Sources, in.Resources); err != nil {
			return err
		}
		if res.Extest != nil {
			if err := res.Program.AttachExtest(len(res.Program.Sessions)-1, res.Extest); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// 6. Optional ATE verification on the behavioural chip model.
	if in.Verify {
		if err := stage(ctx, obsSpanVerify, func() error {
			chip := ate.NewChip(res.Program, res.Cores)
			r, err := ate.Run(res.Program, chip)
			if err != nil {
				return err
			}
			res.Verify = &r
			if !r.Pass {
				return fmt.Errorf("steac: translated patterns fail on the chip model: %d mismatches (first %+v)",
					r.Mismatches, r.First)
			}
			if r.Cycles != res.Schedule.TotalCycles {
				return fmt.Errorf("steac: ATE measured %d cycles, schedule says %d",
					r.Cycles, res.Schedule.TotalCycles)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	obsFlows.Add(1)
	res.Elapsed = time.Since(start)
	return res, nil
}

// EmitSTIL is the convenience used by the flow drivers to produce the ATPG
// hand-off files from core test information.
func EmitSTIL(cores []*testinfo.Core) ([]string, error) {
	out := make([]string, len(cores))
	for i, c := range cores {
		s, err := stil.Emit(c)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
