package xcheck

import (
	"context"
	"fmt"
	"strings"

	"steac/internal/bist"
	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
	"steac/internal/pattern"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// benchDriver runs a bench's drive protocol on e, calling observe once per
// observed cycle; observe returning false ends the run.
type benchDriver func(ctx context.Context, e engine, observe func(cycle int) bool)

// campaignRun drives a bench once on e — a scalar clone carrying one
// fault, or a PackedSim carrying one fault per lane with lane 63
// fault-free — and returns every lane's first tester-visible divergent
// cycle, or -1 if it stayed silent.  Only lanes in pending are tracked;
// the run may end once all of them have diverged.
type campaignRun func(ctx context.Context, e engine, pending uint64) []int

// CampaignSim is the prepared, immutable state of one stuck-at fault
// campaign: the compiled fault-free base netlist, the fault-free run its
// faults are compared against, the (possibly sampled) fault list, and the
// bench's one drive protocol as a campaign run.  The same run serves both
// engines: DetectBatch gives it a PackedSim per batch of PackedBatch
// faults, DetectAt a scalar clone per fault, so VerifyPackedScalar
// compares the two kernels under one protocol.  Both build their machines
// per call, so a single CampaignSim is safe to share across any number of
// concurrent workers — it is the unit the sharded campaign runner
// (internal/campaign) executes, and runCampaign fans the same code path
// across its own workers, with Assemble as the single aggregation path;
// that shared path is what makes a sharded, checkpointed campaign
// bit-identical to an in-process one.
type CampaignSim struct {
	name   string
	base   *netlist.CompiledSim
	sites  int
	faults []netlist.SAFault
	golden int
	run    campaignRun
}

// Name returns the campaign label.
func (s *CampaignSim) Name() string { return s.name }

// Faults returns how many faults the campaign simulates (after MaxFaults
// sampling).
func (s *CampaignSim) Faults() int { return len(s.faults) }

// Sites returns the full fault universe of the design.
func (s *CampaignSim) Sites() int { return s.sites }

// GoldenCycles returns the fault-free trace length faults are compared
// against.
func (s *CampaignSim) GoldenCycles() int { return s.golden }

// DetectAt simulates fault i on its own scalar clone of the base netlist
// and returns the first tester-visible divergent cycle, or -1 if the fault
// stayed silent.  The outcome depends only on the fault index and the
// prepared golden run.  A ctx cancellation can abort the underlying
// simulation early; callers must discard the result when ctx has fired.
func (s *CampaignSim) DetectAt(ctx context.Context, i int) int {
	fs := s.base.Clone()
	f := s.faults[i]
	if err := fs.Inject(f.Gate, f.Port, f.Value); err != nil {
		return -1
	}
	return s.run(ctx, fs, 1)[0]
}

// DetectBatch simulates faults [base, base+n) and returns their detection
// cycles (-1 = silent), bit-identical to n DetectAt calls.  It packs up to
// PackedBatch faults per word-parallel pass — one trip through the gate
// array simulates 63 fault copies plus the golden machine — falling back
// to per-fault scalar clones for single-fault remainders and when
// netlist.NewPackedSim fails.  Results must be discarded when ctx has
// fired, like DetectAt.
func (s *CampaignSim) DetectBatch(ctx context.Context, base, n int) []int {
	out := make([]int, n)
	for lo := 0; lo < n && ctx.Err() == nil; lo += PackedBatch {
		batch := out[lo:min(lo+PackedBatch, n)]
		var ps *netlist.PackedSim
		if len(batch) > 1 {
			ps, _ = netlist.NewPackedSim(s.base)
		}
		if ps == nil {
			for i := range batch {
				batch[i] = s.DetectAt(ctx, base+lo+i)
			}
			continue
		}
		var pending uint64
		for i := range batch {
			f := s.faults[base+lo+i]
			if ps.InjectLane(i, f.Gate, f.Port, f.Value) == nil {
				pending |= 1 << uint(i)
			}
		}
		// An uninjectable fault's lane is not pending, so it reads -1: the
		// verdict DetectAt gives it.
		copy(batch, s.run(ctx, ps, pending))
	}
	return out
}

// VerifyPackedScalar replays every sampled fault through both kernels —
// the word-packed batch path and one scalar clone per fault — and returns
// how many faults were compared.  Any lane whose packed detection cycle
// differs from its scalar reference is an error naming the fault; this is
// the differential that keeps the scalar engine authoritative (`dscflow
// -xcheck` runs it across all 25 DSC designs).
func (s *CampaignSim) VerifyPackedScalar(ctx context.Context) (int, error) {
	packed := s.DetectBatch(ctx, 0, len(s.faults))
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for i := range s.faults {
		if err := ctx.Err(); err != nil {
			return i, err
		}
		if at := s.DetectAt(ctx, i); at != packed[i] {
			return i, fmt.Errorf("xcheck: %s: fault %d (%s): packed detects at cycle %d, scalar at %d",
				s.name, i, s.faults[i], packed[i], at)
		}
	}
	return len(s.faults), nil
}

// Assemble builds the CampaignResult from per-fault detection cycles in
// fault-list order (detectedAt[i] < 0 means fault i stayed silent).  It is
// shared by runCampaign and the sharded campaign runner.  Obs totals are
// published here, once per campaign.
func (s *CampaignSim) Assemble(detectedAt []int, opts Options) CampaignResult {
	res := CampaignResult{Name: s.name, Sites: s.sites, Total: len(s.faults), GoldenCycles: s.golden}
	keep := opts.undetectedCap()
	for i, at := range detectedAt {
		if at >= 0 {
			res.Detected++
			res.Detections = append(res.Detections, FaultDetection{Fault: s.faults[i], Cycle: at})
		} else if keep < 0 || len(res.Undetected) < keep {
			res.Undetected = append(res.Undetected, s.faults[i])
		}
	}
	obsCampFaults.Add(int64(res.Total))
	obsCampDetected.Add(int64(res.Detected))
	return res
}

// newCampaignSim samples the fault universe under opts.MaxFaults/Seed.
func newCampaignSim(name string, base *netlist.CompiledSim, universe []netlist.SAFault,
	golden int, run campaignRun, opts Options) *CampaignSim {
	return &CampaignSim{
		name:   name,
		base:   base,
		sites:  len(universe),
		faults: sampleFaults(universe, opts.MaxFaults, opts.Seed),
		golden: golden,
		run:    run,
	}
}

// NewTPGCampaignSim prepares the sequencer + TPG bench stuck-at campaign:
// it builds and compiles the verify bench for alg over mems, records the
// fault-free DONE/FAIL trace of one solid-background session (driveBIST,
// both ports reading the same word), and samples the fault universe under
// opts.MaxFaults/Seed.  The trace runs a few cycles past DONE, so late
// sticky-fail effects surface exactly like a controller polling MBO/MRD
// would see them.
func NewTPGCampaignSim(name string, alg march.Algorithm, mems []memory.Config, opts Options) (*CampaignSim, error) {
	padded := PadConfigs(mems)
	d, err := bist.BuildVerifyBench(alg, padded)
	if err != nil {
		return nil, err
	}
	base, err := netlist.NewCompiledSim(d, "bench")
	if err != nil {
		return nil, err
	}
	pins := newBenchPins(base, padded)
	drive := func(ctx context.Context, e engine, observe func(int) bool) {
		driveBIST(ctx, e, pins, newBenchRAM(padded), 0, 0, 0, observe)
	}
	golden := &goldenTrace{ids: []int{pins.done, pins.fail}}
	doneRun := 0
	drive(context.Background(), base, func(cycle int) bool {
		golden.record(base)
		if base.GetID(pins.done) {
			doneRun++
		} else {
			doneRun = 0
		}
		// Five DONE cycles end the trace; the cycle cap is a safety net
		// (fault-free benches always finish).
		return doneRun < 5 && cycle < 1<<22
	})
	return newCampaignSim(name, base, base.Faults(), golden.cycles(), golden.compare(drive), opts), nil
}

// NewControllerCampaignSim prepares the shared-controller stuck-at
// campaign: compile the generated controller, record the fault-free
// MBO/MRD/MSO trace of the scripted two-scenario session
// (driveControllerCampaign), sample the fault universe.
func NewControllerCampaignSim(name string, nGroups int, opts Options) (*CampaignSim, error) {
	d := netlist.NewDesign("xctl", nil)
	if _, err := bist.GenerateController(d, "ctl", nGroups); err != nil {
		return nil, err
	}
	base, err := netlist.NewCompiledSim(d, "ctl")
	if err != nil {
		return nil, err
	}
	pins := newCtlPins(base, nGroups)
	drive := func(ctx context.Context, e engine, observe func(int) bool) {
		driveControllerCampaign(ctx, e, nGroups, pins, observe)
	}
	golden := &goldenTrace{ids: []int{pins.mbo, pins.mrd, pins.mso}}
	drive(context.Background(), base, func(int) bool {
		golden.record(base)
		return true
	})
	return newCampaignSim(name, base, base.Faults(), golden.cycles(), golden.compare(drive), opts), nil
}

// NewWrapperCampaignSim prepares the wrapper-stack stuck-at campaign:
// build the wrapped structural core, set up the translated scan program,
// and restrict the fault universe to the wrapper logic (core-internal
// faults are the scan patterns' own job).  Faults are compared against
// the program's own wso expectations, so there is no trace to record.
func NewWrapperCampaignSim(name string, core *testinfo.Core, width int, opts Options) (*CampaignSim, error) {
	d, plan, err := BuildWrapperDesign(core, width, wrapper.LPT)
	if err != nil {
		return nil, err
	}
	base, err := netlist.NewCompiledSim(d, "xtop")
	if err != nil {
		return nil, err
	}
	atpg, err := pattern.NewATPG(core)
	if err != nil {
		return nil, err
	}
	var src pattern.Source = atpg
	if opts.MaxPatterns > 0 && opts.MaxPatterns < atpg.ScanCount() {
		src = &cappedSource{Source: atpg, n: opts.MaxPatterns}
	}
	wb := newWrapBench(base, core, plan, src)
	// The stream's length does not depend on where it stops, so a pass
	// that stops at the first comparison runs just the WIR excursion.
	golden, _ := wb.drive(context.Background(), base, func(int, int, string, uint64, bool) bool { return false })
	run := func(ctx context.Context, e engine, pending uint64) []int {
		det := undetected()
		_, _ = wb.drive(ctx, e, func(at, _ int, _ string, got uint64, want bool) bool {
			pending = markDiff(det, got^bcast(want), pending, at)
			return pending != 0
		})
		return det
	}

	var faults []netlist.SAFault
	for _, f := range base.Faults() {
		if !strings.Contains(f.Gate, "/u_core/") {
			faults = append(faults, f)
		}
	}
	return newCampaignSim(name, base, faults, golden, run, opts), nil
}
