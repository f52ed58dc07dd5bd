package memfault

import (
	"fmt"
	"sort"

	"steac/internal/march"
	"steac/internal/memory"
)

// CoverageSim is the prepared, immutable state of a March coverage
// campaign: the validated algorithm expanded into one golden trace per data
// background.  It is computed once and shared read-only across any number
// of workers; per-goroutine scratch state lives in a PackedWorker, whose
// scalar fallback is a CoverageWorker.  The campaign job runner
// (internal/campaign) runs PackedWorker.DetectBatch over arbitrary fault
// subsets in shards, and CoverageContext runs it over 64-fault batches —
// both aggregate through Assemble, so a sharded, checkpointed campaign is
// bit-identical to an in-process one.
type CoverageSim struct {
	algName string
	cfg     memory.Config
	traces  []*goldenTrace
}

// NewCoverageSim validates alg and precomputes the golden traces for cfg
// under opt (Background/Backgrounds/PauseBefore are the semantic fields;
// Workers and the report caps are ignored here).
func NewCoverageSim(alg march.Algorithm, cfg memory.Config, opt Options) (*CoverageSim, error) {
	if err := alg.Validate(); err != nil {
		return nil, err
	}
	traces, err := tracesFor(alg, cfg, opt)
	if err != nil {
		return nil, err
	}
	return &CoverageSim{algName: alg.Name, cfg: cfg, traces: traces}, nil
}

// Algorithm returns the name of the prepared March algorithm.
func (s *CoverageSim) Algorithm() string { return s.algName }

// CoverageWorker is one goroutine's view of a CoverageSim: a reusable
// fault-machine scratch buffer.  Not safe for concurrent use; create one
// per worker with NewWorker.
type CoverageWorker struct {
	sim     *CoverageSim
	scratch *FaultyRAM
	buf     [1]Fault
}

// NewWorker allocates the per-goroutine scratch machine.
func (s *CoverageSim) NewWorker() (*CoverageWorker, error) {
	scratch, err := NewFaulty(s.cfg, nil)
	if err != nil {
		return nil, err
	}
	return &CoverageWorker{sim: s, scratch: scratch}, nil
}

// Detect simulates the single fault f against every prepared background
// trace and reports whether any run detects it.  The outcome depends only
// on the fault and the prepared traces, never on worker identity or
// simulation order.
func (w *CoverageWorker) Detect(f Fault) (bool, error) {
	w.buf[0] = f
	for _, tr := range w.sim.traces {
		if err := w.scratch.Reset(w.buf[:]); err != nil {
			return false, fmt.Errorf("memfault: simulating %s: %w", f, err)
		}
		if det := tr.replay(w.scratch); det.Detected {
			return true, nil
		}
	}
	return false, nil
}

// Assemble builds the Campaign report from per-fault detection outcomes,
// aggregating in fault-list order exactly like a serial run — it is the
// single aggregation path shared by CoverageContext and the sharded
// campaign runner, which is what makes their reports bit-identical.
// detected[i] is the outcome of faults[i]; opt supplies the Undetected
// report cap.  Obs totals are published here, once per campaign.
func Assemble(algName string, faults []Fault, detected []bool, opt Options) Campaign {
	camp := Campaign{Algorithm: algName}
	if len(faults) == 0 {
		return camp
	}
	maxUndetected := opt.undetectedCap()
	byClass := make(map[string]*ClassCoverage)
	for i, f := range faults {
		camp.Total++
		cc := byClass[f.Kind.Class()]
		if cc == nil {
			cc = &ClassCoverage{Class: f.Kind.Class()}
			byClass[f.Kind.Class()] = cc
		}
		cc.Total++
		if detected[i] {
			camp.Detected++
			cc.Detected++
		} else if maxUndetected < 0 || len(camp.Undetected) < maxUndetected {
			camp.Undetected = append(camp.Undetected, f)
		}
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		camp.ByClass = append(camp.ByClass, *byClass[c])
	}
	obsCampaigns.Add(1)
	obsFaultsSim.Add(int64(camp.Total))
	obsFaultsDet.Add(int64(camp.Detected))
	return camp
}
