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

// CampaignSim is the prepared, immutable state of one stuck-at fault
// campaign: the compiled fault-free base netlist, its recorded golden
// trace, and the (possibly sampled) fault list.  DetectAt clones the base
// per fault, so a single CampaignSim is safe to share across any number of
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
	run    func(ctx context.Context, sim *netlist.CompiledSim) int
	// packedRun simulates up to 63 injected lanes at once on a PackedSim
	// (lane 63 golden) and returns the per-lane first divergent cycle;
	// only lanes in pending are meaningful.  nil means scalar-only.
	packedRun func(ctx context.Context, ps *netlist.PackedSim, pending uint64) []int
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

// DetectAt simulates fault i on its own clone of the base netlist and
// returns the first tester-visible divergent cycle, or -1 if the fault
// stayed silent.  The outcome depends only on the fault index and the
// prepared golden trace.  A ctx cancellation can abort the underlying
// simulation early; callers must discard the result when ctx has fired.
func (s *CampaignSim) DetectAt(ctx context.Context, i int) int {
	fs := s.base.Clone()
	f := s.faults[i]
	if err := fs.Inject(f.Gate, f.Port, f.Value); err != nil {
		return -1
	}
	return s.run(ctx, fs)
}

// DetectBatch simulates faults [base, base+n) and returns their detection
// cycles (-1 = silent), bit-identical to n DetectAt calls.  When the
// campaign has a packed runner it packs up to PackedBatch faults per
// word-parallel pass — one trip through the gate array simulates 63 fault
// copies plus the golden machine — falling back to per-fault scalar clones
// for single-fault remainders or scalar-only campaigns.  Results must be
// discarded when ctx has fired, like DetectAt.
func (s *CampaignSim) DetectBatch(ctx context.Context, base, n int) []int {
	out := make([]int, n)
	for lo := 0; lo < n; lo += PackedBatch {
		hi := lo + PackedBatch
		if hi > n {
			hi = n
		}
		s.detectBatch(ctx, base+lo, out[lo:hi])
		if ctx.Err() != nil {
			break
		}
	}
	return out
}

func (s *CampaignSim) detectBatch(ctx context.Context, base int, out []int) {
	if s.packedRun == nil || len(out) == 1 {
		for i := range out {
			if ctx.Err() != nil {
				return
			}
			out[i] = s.DetectAt(ctx, base+i)
		}
		return
	}
	ps, err := netlist.NewPackedSim(s.base)
	if err != nil {
		for i := range out {
			out[i] = s.DetectAt(ctx, base+i)
		}
		return
	}
	var pending uint64
	for i := range out {
		f := s.faults[base+i]
		if e := ps.InjectLane(i, f.Gate, f.Port, f.Value); e != nil {
			out[i] = -1 // same verdict DetectAt gives an uninjectable fault
			continue
		}
		pending |= 1 << uint(i)
	}
	det := s.packedRun(ctx, ps, pending)
	for i := range out {
		if pending>>uint(i)&1 == 1 {
			out[i] = det[i]
		}
	}
}

// VerifyPackedScalar replays every sampled fault through both kernels —
// the word-packed batch path and one scalar clone per fault — and returns
// how many faults were compared.  Any lane whose packed detection cycle
// differs from its scalar reference is an error naming the fault; this is
// the differential that keeps the scalar engine authoritative (`dscflow
// -xcheck` runs it across all 25 DSC designs).
func (s *CampaignSim) VerifyPackedScalar(ctx context.Context) (int, error) {
	if s.packedRun == nil {
		return 0, fmt.Errorf("xcheck: %s: campaign has no packed kernel", s.name)
	}
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

// NewTPGCampaignSim prepares the sequencer + TPG bench stuck-at campaign:
// it builds and compiles the verify bench for alg over mems, records the
// fault-free DONE/FAIL session trace, and samples the fault universe under
// opts.MaxFaults/Seed.
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
	golden, _ := runBISTTraced(base, pins, padded, nil)
	all := base.Faults()
	return &CampaignSim{
		name:   name,
		base:   base,
		sites:  len(all),
		faults: sampleFaults(all, opts.MaxFaults, opts.Seed),
		golden: len(golden),
		run: func(_ context.Context, sim *netlist.CompiledSim) int {
			_, at := runBISTTraced(sim, pins, padded, golden)
			return at
		},
		packedRun: func(ctx context.Context, ps *netlist.PackedSim, pending uint64) []int {
			return runBISTPacked(ctx, ps, pins, padded, golden, pending)
		},
	}, nil
}

// NewControllerCampaignSim prepares the shared-controller stuck-at
// campaign: compile the generated controller, record the fault-free
// scripted two-scenario session, sample the fault universe.
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
	golden, _ := runControllerTraced(base, nGroups, pins, nil)
	all := base.Faults()
	return &CampaignSim{
		name:   name,
		base:   base,
		sites:  len(all),
		faults: sampleFaults(all, opts.MaxFaults, opts.Seed),
		golden: len(golden),
		run: func(_ context.Context, sim *netlist.CompiledSim) int {
			_, at := runControllerTraced(sim, nGroups, pins, golden)
			return at
		},
		packedRun: func(ctx context.Context, ps *netlist.PackedSim, pending uint64) []int {
			return runControllerPacked(ctx, ps, nGroups, pins, golden, pending)
		},
	}, nil
}

// NewWrapperCampaignSim prepares the wrapper-stack stuck-at campaign:
// build the wrapped structural core, set up the translated scan program,
// and restrict the fault universe to the wrapper logic (core-internal
// faults are the scan patterns' own job).
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
	pins := newWrapPins(base, plan.Width, core)
	lane := pattern.NewScanLane(core, src, plan, 0, 0)
	layout := pattern.SessionLayout{Cycles: lane.Cycles, Chains: []pattern.ChainLane{lane}}
	prog := &pattern.Program{TamWidth: plan.Width}

	run := func(ctx context.Context, sim *netlist.CompiledSim) int {
		sim.Reset()
		wrapDefaults(sim, core)
		detected := -1
		wirCycles := wirBypassScript(sim, pins, func(cycle int, pin string, got, want bool) bool {
			if got != want && detected < 0 {
				detected = cycle
			}
			return detected < 0
		})
		if detected >= 0 {
			return detected
		}
		_ = streamScan(ctx, sim, prog, layout, core, pins, func(cycle int, pin string, got, want bool) bool {
			if got != want && detected < 0 {
				detected = wirCycles + cycle
			}
			return detected < 0
		})
		return detected
	}

	var faults []netlist.SAFault
	for _, f := range base.Faults() {
		if strings.Contains(f.Gate, "/u_core/") {
			continue
		}
		faults = append(faults, f)
	}
	sites := len(faults)
	return &CampaignSim{
		name:   name,
		base:   base,
		sites:  sites,
		faults: sampleFaults(faults, opts.MaxFaults, opts.Seed),
		golden: wirCyclesFor() + layout.Cycles,
		run:    run,
		packedRun: func(ctx context.Context, ps *netlist.PackedSim, pending uint64) []int {
			return runWrapperPacked(ctx, ps, core, pins, prog, layout, pending)
		},
	}, nil
}
