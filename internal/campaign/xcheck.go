package campaign

import (
	"context"
	"encoding/json"
	"fmt"

	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/scenario"
	"steac/internal/xcheck"
)

// KindXCheck tags gate-level stuck-at campaign specs in manifests and job
// requests.
const KindXCheck = "xcheck"

// Campaign selector values for XCheckSpec.Campaign.
const (
	XCheckTPG        = "tpg"
	XCheckController = "controller"
	XCheckWrapper    = "wrapper"
)

func init() {
	RegisterKind(KindXCheck, func(payload json.RawMessage) (Spec, error) {
		var s XCheckSpec
		if err := json.Unmarshal(payload, &s); err != nil {
			return nil, err
		}
		return &s, nil
	})
}

// XCheckSpec describes one gate-level stuck-at fault campaign against a
// generated design.  As with CoverageSpec, every field is semantic and
// fingerprinted; tuning lives in Options.
type XCheckSpec struct {
	// Campaign selects the design under test: "tpg" (sequencer + TPG
	// bench), "controller" (shared BIST controller), or "wrapper"
	// (P1500-style wrapper stack).
	Campaign string `json:"campaign"`
	// Name labels the campaign in the result (defaults to Campaign).
	Name string `json:"name,omitempty"`
	// Algorithm and Memories configure the "tpg" bench.
	Algorithm string          `json:"algorithm,omitempty"`
	Memories  []memory.Config `json:"memories,omitempty"`
	// Scenario/ChipSeed regenerate a scenario chip as the design source:
	// MemoryNames then selects "tpg" macros from it and Core resolves
	// against its cores instead of the DSC inventory.
	Scenario    string   `json:"scenario,omitempty"`
	ChipSeed    int64    `json:"chip_seed,omitempty"`
	MemoryNames []string `json:"memory_names,omitempty"`
	// NGroups configures the "controller" campaign.
	NGroups int `json:"n_groups,omitempty"`
	// Core ("USB", "TV", "JPEG", or a scenario core name) and TamWidth
	// configure the "wrapper" campaign.
	Core     string `json:"core,omitempty"`
	TamWidth int    `json:"tam_width,omitempty"`
	// MaxFaults/Seed sample the fault universe; MaxUndetected caps the
	// survivor list; MaxPatterns caps wrapper scan patterns per fault.
	// All four change the result, hence live in the spec.
	MaxFaults     int   `json:"max_faults,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	MaxUndetected int   `json:"max_undetected,omitempty"`
	MaxPatterns   int   `json:"max_patterns,omitempty"`
}

// Kind implements Spec.
func (s *XCheckSpec) Kind() string { return KindXCheck }

// Marshal implements Spec.
func (s *XCheckSpec) Marshal() (json.RawMessage, error) {
	return json.Marshal(s)
}

func (s *XCheckSpec) options() xcheck.Options {
	return xcheck.Options{
		MaxFaults:     s.MaxFaults,
		Seed:          s.Seed,
		MaxUndetected: s.MaxUndetected,
		MaxPatterns:   s.MaxPatterns,
	}
}

func (s *XCheckSpec) name() string {
	if s.Name != "" {
		return s.Name
	}
	return s.Campaign
}

// Prepare implements Spec: build and compile the design, record the
// fault-free golden trace, sample the fault universe.
func (s *XCheckSpec) Prepare(context.Context) (Executor, error) {
	opts := s.options()
	var chip *scenario.Chip
	if s.Scenario != "" {
		var err error
		if chip, err = scenario.GenerateByName(s.Scenario, s.ChipSeed); err != nil {
			return nil, err
		}
	}
	var (
		sim *xcheck.CampaignSim
		err error
	)
	switch s.Campaign {
	case XCheckTPG:
		mems, algName := s.Memories, s.Algorithm
		if chip != nil && len(s.MemoryNames) > 0 {
			if len(mems) > 0 {
				return nil, fmt.Errorf("campaign: both memories and memory_names set")
			}
			for _, name := range s.MemoryNames {
				m, merr := chipMemory(chip, name)
				if merr != nil {
					return nil, merr
				}
				mems = append(mems, m)
			}
		}
		if algName == "" && chip != nil {
			algName = chipAlgorithm(chip)
		}
		alg, ok := march.ByName(algName)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown march algorithm %q", algName)
		}
		if len(mems) == 0 {
			return nil, fmt.Errorf("campaign: tpg campaign needs at least one memory")
		}
		sim, err = xcheck.NewTPGCampaignSim(s.name(), alg, mems, opts)
	case XCheckController:
		if s.NGroups <= 0 {
			return nil, fmt.Errorf("campaign: controller campaign needs n_groups > 0")
		}
		sim, err = xcheck.NewControllerCampaignSim(s.name(), s.NGroups, opts)
	case XCheckWrapper:
		// A bare core name is a Table-1 core: resolve it on the dsc chip.
		if chip == nil {
			if chip, err = scenario.GenerateByName("dsc", 0); err != nil {
				return nil, err
			}
		}
		core, cerr := chipCore(chip, s.Core)
		if cerr != nil {
			return nil, cerr
		}
		if s.TamWidth <= 0 {
			return nil, fmt.Errorf("campaign: wrapper campaign needs tam_width > 0")
		}
		sim, err = xcheck.NewWrapperCampaignSim(s.name(), core, s.TamWidth, opts)
	default:
		return nil, fmt.Errorf("campaign: unknown xcheck campaign %q (want %s|%s|%s)",
			s.Campaign, XCheckTPG, XCheckController, XCheckWrapper)
	}
	if err != nil {
		return nil, err
	}
	return &xcheckExecutor{spec: s, sim: sim}, nil
}

type xcheckExecutor struct {
	spec *XCheckSpec
	sim  *xcheck.CampaignSim
}

func (e *xcheckExecutor) Units() int { return e.sim.Faults() }

// BatchSize aligns shard sizes to the packed netlist simulator's fault
// batch (63 injected lanes + the golden machine per word).
func (e *xcheckExecutor) BatchSize() int { return xcheck.PackedBatch }

// NewWorker returns a stateless view: CampaignSim.DetectBatch builds its
// own packed (or cloned scalar) machines per call, so workers share the
// sim directly.
func (e *xcheckExecutor) NewWorker() (Worker, error) {
	return &xcheckWorker{sim: e.sim}, nil
}

// Assemble maps the outcome vector (first divergent cycle, -1 = silent)
// through CampaignSim.Assemble — the same path runCampaign uses.
func (e *xcheckExecutor) Assemble(out []int64) (interface{}, error) {
	detectedAt := make([]int, len(out))
	for i, v := range out {
		detectedAt[i] = int(v)
	}
	return e.sim.Assemble(detectedAt, e.spec.options()), nil
}

type xcheckWorker struct {
	sim *xcheck.CampaignSim
}

func (w *xcheckWorker) Run(ctx context.Context, lo, hi int, out []int64) error {
	// DetectBatch packs up to 63 faults per word-parallel netlist pass and
	// polls ctx between batches (the bench drivers additionally poll
	// mid-session); on cancellation its results are garbage and the ctx
	// check below discards the shard.
	for i, at := range w.sim.DetectBatch(ctx, lo, hi-lo) {
		out[i] = int64(at)
	}
	return ctx.Err()
}
