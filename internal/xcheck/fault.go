package xcheck

import (
	"context"
	"fmt"
	"math/bits"

	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
	"steac/internal/par"
	"steac/internal/pattern"
	"steac/internal/testinfo"
)

// sampleFaults applies the MaxFaults cap by uniform stride over the site
// list (never silently: CampaignResult reports Sites vs Total).  A non-zero
// seed rotates the stride's starting point through the universe, so repeated
// sampled campaigns with different seeds cover different sites while each
// remains fully deterministic.
func sampleFaults(faults []netlist.SAFault, max int, seed int64) []netlist.SAFault {
	if max <= 0 || len(faults) <= max {
		return faults
	}
	offset := 0
	if seed != 0 {
		offset = int(uint64(seed) % uint64(len(faults)))
	}
	out := make([]netlist.SAFault, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, faults[(i*len(faults)/max+offset)%len(faults)])
	}
	return out
}

// runCampaign simulates every fault of sim via word-packed batches, fanned
// out over opts.Workers goroutines (par.Do).  Each fan-out item is one
// PackedBatch-wide chunk of the fault list and results are merged in
// fault-list order, so the outcome is identical for any worker count —
// batch boundaries are fixed multiples of PackedBatch regardless of which
// worker claims them.  Workers poll ctx between batches (and the bench
// drivers poll mid-session); a canceled campaign returns ctx.Err()
// wrapped with the stage name and no partial result.
func runCampaign(ctx context.Context, sim *CampaignSim, opts Options) (CampaignResult, error) {
	tm := obsSpanCampaign.Start()
	defer tm.Stop()
	n := sim.Faults()
	detectedAt := make([]int, n)
	chunks := (n + PackedBatch - 1) / PackedBatch
	err := par.Do(ctx, opts.Workers, chunks, nil, func(_ struct{}, c int) error {
		lo := c * PackedBatch
		hi := min(lo+PackedBatch, n)
		copy(detectedAt[lo:hi], sim.DetectBatch(ctx, lo, hi-lo))
		return nil
	})
	if err != nil {
		return CampaignResult{}, fmt.Errorf("xcheck: campaign %s: %w", sim.Name(), err)
	}
	return sim.Assemble(detectedAt, opts), nil
}

// TPGCampaignContext injects every stuck-at fault into the flattened sequencer +
// TPG bench and asks whether the BIST's own tester-visible outcome pins
// (DONE and the sticky FAIL) ever diverge from the fault-free session.
//
// Workers poll ctx between packed batches of PackedBatch faults.
func TPGCampaignContext(ctx context.Context, name string, alg march.Algorithm, mems []memory.Config, opts Options) (CampaignResult, error) {
	sim, err := NewTPGCampaignSim(name, alg, mems, opts)
	if err != nil {
		return CampaignResult{}, err
	}
	return runCampaign(ctx, sim, opts)
}

// driveControllerCampaign is the controller campaign's one drive
// protocol: two scenarios (every group passes, then the middle group
// fails), each a reset pulse and a start followed by 12n+12 cycles in
// which behavioural groups, one set per lane, answer that lane's own GO
// outputs.  observe sees every settled cycle, numbered across both
// scenarios; returning false ends the session.  ctx is polled every
// equivPollCycles cycles and a cancel ends the session.
func driveControllerCampaign(ctx context.Context, e engine, nGroups int, pins ctlPins, observe func(cycle int) bool) {
	age := make([][netlist.Lanes]int, nGroups)
	cycle := 0
	canceled := pollEvery(ctx)
	e.Reset()
	for scenario := 0; scenario < 2; scenario++ {
		failing := -1
		if scenario == 1 {
			failing = nGroups / 2
		}
		// Reset pulse, then start.
		for _, step := range []struct{ mbs, mbr bool }{{false, true}, {true, false}} {
			e.SetID(pins.mbs, step.mbs)
			e.SetID(pins.mbr, step.mbr)
			e.SetID(pins.msi, true)
			for i := 0; i < nGroups; i++ {
				e.SetID(pins.gdone[i], false)
				e.SetID(pins.gfail[i], false)
			}
			e.TickID(pins.mbc)
		}
		e.SetID(pins.mbs, false)
		clear(age)
		for local := 0; local < 12*nGroups+12; local++ {
			if canceled() {
				return
			}
			e.Settle()
			if !observe(cycle) {
				return
			}
			for i := 0; i < nGroups; i++ {
				var gdone, gfail uint64
				for w := e.GetWordID(pins.gos[i]); w != 0; w &= w - 1 {
					l := bits.TrailingZeros64(w)
					age[i][l]++
					if age[i][l] >= 3+i%4 {
						gdone |= 1 << uint(l)
					}
					if i == failing && age[i][l] == 2 {
						gfail |= 1 << uint(l)
					}
				}
				e.SetWordID(pins.gdone[i], gdone)
				e.SetWordID(pins.gfail[i], gfail)
			}
			e.TickID(pins.mbc)
			cycle++
		}
	}
}

// ControllerCampaignContext injects every stuck-at fault into the flattened shared
// controller and checks whether the MBO/MRD/MSO tester pins ever diverge
// from the fault-free scripted session.
//
// Workers poll ctx between packed batches of PackedBatch faults.
func ControllerCampaignContext(ctx context.Context, name string, nGroups int, opts Options) (CampaignResult, error) {
	sim, err := NewControllerCampaignSim(name, nGroups, opts)
	if err != nil {
		return CampaignResult{}, err
	}
	return runCampaign(ctx, sim, opts)
}

// WrapperCampaignContext injects stuck-at faults into the wrapper logic (boundary
// cells, WIR, WBY, glue — core-internal faults are the scan patterns' own
// job and are excluded) and checks whether the translated scan program's
// wso expectations catch them.  The detection criterion is exactly the
// tester's: a miscompare against a non-X expected bit.
//
// Workers poll ctx between packed batches of PackedBatch faults.
func WrapperCampaignContext(ctx context.Context, name string, core *testinfo.Core, width int, opts Options) (CampaignResult, error) {
	sim, err := NewWrapperCampaignSim(name, core, width, opts)
	if err != nil {
		return CampaignResult{}, err
	}
	return runCampaign(ctx, sim, opts)
}

// cappedSource serves only the first n scan patterns of its base source.
type cappedSource struct {
	pattern.Source
	n int
}

func (c *cappedSource) ScanCount() int { return c.n }
