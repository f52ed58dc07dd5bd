package memfault

import (
	"context"
	"fmt"

	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/obs"
	"steac/internal/par"
)

// Observability: totals are accumulated in the deterministic aggregation
// pass (never inside worker loops), so they are identical for every worker
// count — the stress tests in internal/obs assert this.
var (
	obsSpanCoverage = obs.GetSpan("memfault.coverage")
	obsCampaigns    = obs.GetCounter("memfault.campaigns")
	obsFaultsSim    = obs.GetCounter("memfault.faults_simulated")
	obsFaultsDet    = obs.GetCounter("memfault.faults_detected")
)

// Detection is the outcome of simulating one fault machine under one March
// algorithm.
type Detection struct {
	Detected bool
	// OpIndex is the position in the access stream where the first
	// mismatch occurred (valid when Detected).
	OpIndex int
	// Access is the detecting read.
	Access march.Access
	// Expected and Got are the full data words compared.
	Expected, Got uint64
}

// Options tunes the simulation.
type Options struct {
	// Background is the data word written for March value 0; value 1
	// writes its complement.  The zero value (all-zeros background) is the
	// classical solid background.
	Background uint64
	// Backgrounds, when non-empty, runs the algorithm once per background
	// (each run on a fresh fault machine, like a BIST background loop) and
	// reports a detection if any run detects.  It overrides Background.
	Backgrounds []uint64
	// PauseBefore lists March element indices preceded by a retention
	// pause (the Del of a retention test); data-retention faults decay
	// during each pause.
	PauseBefore []int
	// Workers is the number of goroutines a Coverage campaign fans its
	// faults across (faults are independent under the single-fault
	// assumption).  0 means runtime.GOMAXPROCS(0).  Results are
	// aggregated in fault-list order, so the Campaign is identical for
	// every worker count.
	Workers int
	// MaxUndetected caps Campaign.Undetected, the list of surviving
	// faults kept for reports.  0 means the default cap of 32; a negative
	// value keeps every survivor (useful for large diagnostic campaigns).
	MaxUndetected int
	// Seed varies any sampling or stochastic choice an engine makes, under
	// the repository-wide Options convention (see DESIGN.md).  The March
	// coverage engine is fully deterministic and makes none, so Seed is
	// accepted for convention compatibility and ignored; 0 everywhere means
	// the canonical deterministic defaults.
	Seed int64
}

// undetectedCap resolves Options.MaxUndetected (0 = 32, negative = no cap).
func (o Options) undetectedCap() int {
	if o.MaxUndetected == 0 {
		return 32
	}
	return o.MaxUndetected
}

// Simulate runs alg against a single-fault (or multi-fault) machine on a
// memory of the given configuration and reports whether any read
// mismatches the fault-free reference.
func Simulate(alg march.Algorithm, cfg memory.Config, faults []Fault, opt Options) (Detection, error) {
	if err := alg.Validate(); err != nil {
		return Detection{}, err
	}
	faulty, err := NewFaulty(cfg, faults)
	if err != nil {
		return Detection{}, err
	}
	traces, err := tracesFor(alg, cfg, opt)
	if err != nil {
		return Detection{}, err
	}
	for i, tr := range traces {
		if i > 0 {
			if err := faulty.Reset(faults); err != nil {
				return Detection{}, err
			}
		}
		if det := tr.replay(faulty); det.Detected {
			return det, nil
		}
	}
	return Detection{}, nil
}

// ClassCoverage is the detected/total ratio for one fault class.
type ClassCoverage struct {
	Class    string
	Total    int
	Detected int
}

// Percent returns the coverage percentage (100 for an empty class).
func (c ClassCoverage) Percent() float64 {
	if c.Total == 0 {
		return 100
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// Campaign is the result of simulating a list of single faults.
type Campaign struct {
	Algorithm string
	Total     int
	Detected  int
	ByClass   []ClassCoverage
	// Undetected lists the surviving faults, capped at
	// Options.MaxUndetected (default 32) for reports.
	Undetected []Fault
}

// Percent returns the overall fault coverage percentage.
func (c Campaign) Percent() float64 {
	if c.Total == 0 {
		return 100
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// faultChunk is how many faults one fan-out item covers.  It equals
// PackedLanes, so every item is exactly one word-parallel batch of the
// bit-plane engine, and item boundaries are fixed multiples of the lane
// width regardless of worker count — every worker count simulates
// identical batches.
const faultChunk = PackedLanes

// CoverageContext simulates each fault in isolation (single-fault assumption) and
// aggregates coverage per fault class.  The campaign fans the fault list
// across Options.Workers goroutines (par.Do): the golden trace is computed
// once and shared read-only, each worker reuses one packed fault-machine
// scratch buffer across its faults, and results are aggregated in
// fault-list order — the Campaign is bit-identical to a serial run.
//
// Workers poll ctx at chunk boundaries (every faultChunk faults, microseconds to low milliseconds of
// simulation), drain promptly once it fires, and the campaign returns
// ctx.Err() wrapped with the stage name instead of a partial result.
func CoverageContext(ctx context.Context, alg march.Algorithm, cfg memory.Config, faults []Fault, opt Options) (Campaign, error) {
	tm := obsSpanCoverage.Start()
	defer tm.Stop()
	if len(faults) == 0 {
		return Campaign{Algorithm: alg.Name}, nil
	}
	sim, err := NewCoverageSim(alg, cfg, opt)
	if err != nil {
		return Campaign{}, err
	}

	detected := make([]bool, len(faults))
	simErrs := make([]error, len(faults))
	// Item c is the batch of faults [c*faultChunk, (c+1)*faultChunk); the
	// scalar fallback per fault happens inside DetectBatch.
	chunks := (len(faults) + faultChunk - 1) / faultChunk
	err = par.Do(ctx, opt.Workers, chunks, sim.NewPackedWorker, func(w *PackedWorker, c int) error {
		lo := c * faultChunk
		hi := min(lo+faultChunk, len(faults))
		w.DetectBatch(faults[lo:hi], detected[lo:hi], simErrs[lo:hi])
		return nil
	})
	if err != nil {
		return Campaign{}, fmt.Errorf("memfault: coverage: %w", err)
	}
	for _, err := range simErrs {
		if err != nil {
			return Campaign{}, err
		}
	}
	return Assemble(alg.Name, faults, detected, opt), nil
}

// ClassPercent returns the coverage of one class in a campaign, or -1 if the
// class was not exercised.
func (c Campaign) ClassPercent(class string) float64 {
	for _, cc := range c.ByClass {
		if cc.Class == class {
			return cc.Percent()
		}
	}
	return -1
}
