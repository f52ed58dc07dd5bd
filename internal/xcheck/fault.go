package xcheck

import (
	"context"
	"fmt"

	"steac/internal/bist"
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
// worker claims them.  Workers poll ctx between batches (and the packed
// BIST runner polls mid-session); a canceled campaign returns ctx.Err()
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

// bistTrace is one cycle of the BIST bench's tester-visible pins.
type bistTrace struct{ done, fail bool }

// runBISTTraced runs one solid-background March session on a bench sim with
// emulated RAMs responding to the netlist's own pins, recording (or
// comparing against) the DONE/FAIL trace.  With golden == nil it records
// and returns the trace; otherwise it returns the first divergent cycle or
// -1.  A few extra observation cycles past DONE let late sticky-fail
// effects surface, exactly like a controller polling MBO/MRD would see them.
func runBISTTraced(sim *netlist.CompiledSim, pins benchPins, mems []memory.Config,
	golden []bistTrace) ([]bistTrace, int) {
	sim.Reset()
	gmem := make([][]uint64, len(mems))
	for i, cfg := range mems {
		gmem[i] = make([]uint64, cfg.Words)
	}
	sim.Set("bgsel", false)
	sim.Set("pbsel", false)
	sim.Set("rst", true)
	sim.Set("en", false)
	sim.Tick("ck")
	sim.Set("rst", false)
	sim.Set("en", true)
	// One settle propagates the enable; after that the state is settled at
	// the top of every iteration (Tick ends with a Settle), so each cycle
	// needs only the post-RAM-read settle.
	sim.Settle()

	var trace []bistTrace
	cycle := 0
	for {
		for i := range mems {
			word := gmem[i][getBusID(sim, pins.addr[i])]
			for b, id := range pins.q[i] {
				sim.SetID(id, word>>uint(b)&1 == 1)
			}
			for b, id := range pins.qb[i] {
				sim.SetID(id, word>>uint(b)&1 == 1)
			}
		}
		sim.Settle()
		cur := bistTrace{done: sim.GetID(pins.done), fail: sim.GetID(pins.fail)}
		if golden != nil {
			if cur != golden[cycle] {
				return nil, cycle
			}
			if cycle == len(golden)-1 {
				return nil, -1
			}
		} else {
			trace = append(trace, cur)
			if cur.done && cycle >= len(trace)-1 && countTrailingDone(trace) > 4 {
				return trace, -1
			}
		}
		for i := range mems {
			if sim.GetID(pins.we[i]) {
				gmem[i][getBusID(sim, pins.addr[i])] = uint64(getBusID(sim, pins.d[i]))
			}
		}
		sim.Tick("ck")
		cycle++
		if golden == nil && cycle > 1<<22 {
			return trace, -1 // safety net; fault-free benches always finish
		}
	}
}

func countTrailingDone(trace []bistTrace) int {
	n := 0
	for i := len(trace) - 1; i >= 0 && trace[i].done; i-- {
		n++
	}
	return n
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

// ctlTrace is one cycle of the controller's tester pins.
type ctlTrace struct{ mbo, mrd, mso bool }

// runControllerTraced drives the scripted two-scenario session (all groups
// pass, then the middle group fails) with behavioural groups answering the
// controller's own GO outputs.  Trace/compare semantics mirror
// runBISTTraced.
func runControllerTraced(sim *netlist.CompiledSim, nGroups int,
	goIDs, gdoneIDs, gfailIDs, outIDs []int, golden []ctlTrace) ([]ctlTrace, int) {
	var trace []ctlTrace
	cycle := 0
	sim.Reset()
	for scenario := 0; scenario < 2; scenario++ {
		failing := -1
		if scenario == 1 {
			failing = nGroups / 2
		}
		// Reset pulse, then start.
		for _, step := range []struct{ mbs, mbr bool }{{false, true}, {true, false}} {
			sim.Set(bist.PinMBS, step.mbs)
			sim.Set(bist.PinMBR, step.mbr)
			sim.Set(bist.PinMSI, true)
			for i := 0; i < nGroups; i++ {
				sim.SetID(gdoneIDs[i], false)
				sim.SetID(gfailIDs[i], false)
			}
			sim.Tick(bist.PinMBC)
		}
		sim.Set(bist.PinMBS, false)
		age := make([]int, nGroups)
		for local := 0; local < 12*nGroups+12; local++ {
			sim.Settle()
			cur := ctlTrace{sim.GetID(outIDs[0]), sim.GetID(outIDs[1]), sim.GetID(outIDs[2])}
			if golden != nil {
				if cur != golden[cycle] {
					return nil, cycle
				}
				if cycle == len(golden)-1 {
					return nil, -1
				}
			} else {
				trace = append(trace, cur)
			}
			for i := 0; i < nGroups; i++ {
				gdone, gfail := false, false
				if sim.GetID(goIDs[i]) {
					age[i]++
					gdone = age[i] >= 3+i%4
					gfail = i == failing && age[i] == 2
				}
				sim.SetID(gdoneIDs[i], gdone)
				sim.SetID(gfailIDs[i], gfail)
			}
			sim.Tick(bist.PinMBC)
			cycle++
		}
	}
	return trace, -1
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

// wirCyclesFor is the fixed length of the WIR excursion script.
func wirCyclesFor() int { return 3 + 5 + 3 }

// cappedSource serves only the first n scan patterns of its base source.
type cappedSource struct {
	pattern.Source
	n int
}

func (c *cappedSource) ScanCount() int { return c.n }
