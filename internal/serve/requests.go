package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"time"

	"steac/internal/brains"
	"steac/internal/catalog"
	"steac/internal/core"
	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/scenario"
	"steac/internal/sched"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
	"steac/internal/xcheck"
)

// The request types below are the daemon's wire format.  Every request
// carries two non-semantic tuning fields — Workers and TimeoutMS — that
// never change the result (all engines are worker-count-invariant and a
// deadline either completes or fails the request), so the canonical cache
// key is computed with both zeroed; see requestKey.

// canonical copies a request (value or pointer) with its tuning fields
// zeroed: the form requestKey hashes.
func canonical(req any) any {
	v := reflect.Indirect(reflect.ValueOf(req))
	c := reflect.New(v.Type()).Elem()
	c.Set(v)
	c.FieldByName("Workers").SetInt(0)
	c.FieldByName("TimeoutMS").SetInt(0)
	return c.Interface()
}

// timeoutOf is a request's TimeoutMS tuning field (0 = server default).
func timeoutOf(req any) time.Duration {
	ms := reflect.Indirect(reflect.ValueOf(req)).FieldByName("TimeoutMS").Int()
	return time.Duration(ms) * time.Millisecond
}

func algorithmByName(name string) (march.Algorithm, error) {
	if name == "" {
		return march.MarchCMinus(), nil
	}
	alg, ok := march.ByName(name)
	if !ok {
		return march.Algorithm{}, badRequestf("unknown March algorithm %q", name)
	}
	return alg, nil
}

// chipByName regenerates a scenario chip for a request.  Spec-level
// failures (unknown scenario, bad distribution, ...) are the client's
// fault and map to 400.
func chipByName(name string, seed int64) (*scenario.Chip, error) {
	chip, err := scenario.GenerateByName(name, seed)
	if err != nil {
		if errors.Is(err, scenario.ErrUnknownScenario) {
			return nil, badRequestf("unknown chip %q (builtin scenarios: %s)",
				name, strings.Join(scenario.Names(), ", "))
		}
		return nil, errBadRequest{err}
	}
	return chip, nil
}

func memoryConfig(words, bits int, twoPort bool) memory.Config {
	kind := memory.SinglePort
	if twoPort {
		kind = memory.TwoPort
	}
	return memory.Config{Name: "req", Words: words, Bits: bits, Kind: kind}
}

// FlowRequest runs the complete STEAC integration flow.  Chip names a
// registered scenario, generated from the scenario registry with Seed —
// "dsc" is the paper's chip (Table 1 cores, the 22 embedded memories, the
// pin and power budgets); alternatively supply explicit STIL sources and
// memory configs.
type FlowRequest struct {
	Chip string `json:"chip,omitempty"`
	// Seed samples the scenario chip.  A fully pinned scenario such as
	// "dsc" yields the same chip for every seed, though the seed still
	// keys the cache and the catalog record.
	Seed     int64           `json:"seed,omitempty"`
	STIL     []string        `json:"stil,omitempty"`
	Memories []memory.Config `json:"memories,omitempty"`
	// TestPins/FuncPins/MaxPower/PowerBudget override the chip budget when
	// non-zero.
	TestPins    int     `json:"test_pins,omitempty"`
	FuncPins    int     `json:"func_pins,omitempty"`
	MaxPower    float64 `json:"max_power,omitempty"`
	PowerBudget float64 `json:"power_budget,omitempty"`
	Partition   string  `json:"partition,omitempty"`
	// Algorithm selects the BIST March test by catalog name (default
	// March C-).
	Algorithm string `json:"algorithm,omitempty"`
	Verify    bool   `json:"verify,omitempty"`
	// Extest appends the EXTEST interconnect-test session (chip "dsc").
	Extest bool `json:"extest,omitempty"`

	Workers   int `json:"workers,omitempty"`    // non-semantic
	TimeoutMS int `json:"timeout_ms,omitempty"` // non-semantic
}

// FlowResponse summarizes a flow run.  Wall-clock time is deliberately
// omitted: responses are content-addressed, so identical requests must
// serialize identically whether computed or replayed from cache.
type FlowResponse struct {
	Cores             []string `json:"cores"`
	Sessions          int      `json:"sessions"`
	ScheduleCycles    int      `json:"schedule_cycles"`
	NonSessionCycles  int      `json:"non_session_cycles"`
	SerialCycles      int      `json:"serial_cycles"`
	BISTCycles        int      `json:"bist_cycles,omitempty"`
	BISTGroups        int      `json:"bist_groups,omitempty"`
	VerifyPass        *bool    `json:"verify_pass,omitempty"`
	VerifyCycles      int      `json:"verify_cycles,omitempty"`
	TranslatedCycles  int      `json:"translated_cycles,omitempty"`
	InterconnectWires int      `json:"interconnect_wires,omitempty"`
	// PeakPower is the highest per-session summed power of the winning
	// schedule — one axis of the catalog's tradeoff tables.
	PeakPower float64 `json:"peak_power,omitempty"`
}

func (r FlowRequest) run(ctx context.Context) (interface{}, error) {
	in := core.FlowInput{Verify: r.Verify}
	if r.Chip == "" {
		if len(r.STIL) == 0 {
			return nil, badRequestf("request needs a chip scenario name or explicit stil sources")
		}
		in.STIL = r.STIL
		in.Memories = r.Memories
		in.Resources = sched.Resources{TestPins: 26, FuncPins: 300}
	} else {
		chip, err := chipByName(r.Chip, r.Seed)
		if err != nil {
			return nil, err
		}
		if in, err = chip.FlowInput(r.Verify); err != nil {
			return nil, err
		}
		if r.Extest {
			if in.Interconnects, err = chip.Interconnects(); err != nil {
				return nil, errBadRequest{err}
			}
		}
	}
	if r.TestPins > 0 {
		in.Resources.TestPins = r.TestPins
	}
	if r.FuncPins > 0 {
		in.Resources.FuncPins = r.FuncPins
	}
	if r.MaxPower > 0 {
		in.Resources.MaxPower = r.MaxPower
	}
	if r.PowerBudget > 0 {
		in.Resources.PowerBudget = r.PowerBudget
	}
	if r.Partition != "" {
		part, err := wrapper.ParsePartitioner(r.Partition)
		if err != nil {
			return nil, errBadRequest{err}
		}
		in.Resources.Partitioner = part
	}
	// An explicit algorithm always wins; otherwise a scenario chip keeps
	// its own BIST plan, and a chip or STIL submission without one
	// defaults to March C-.
	if r.Algorithm != "" || in.BISTOptions.Algorithm.Name == "" {
		alg, err := algorithmByName(r.Algorithm)
		if err != nil {
			return nil, err
		}
		in.BISTOptions.Algorithm = alg
	}
	in.BISTOptions.Workers = r.Workers
	in.Resources.Workers = r.Workers

	res, err := core.RunFlowContext(ctx, in)
	if err != nil {
		return nil, err
	}
	out := &FlowResponse{
		Sessions:         len(res.Schedule.Sessions),
		ScheduleCycles:   res.Schedule.TotalCycles,
		NonSessionCycles: res.NonSession.TotalCycles,
		SerialCycles:     res.Serial.TotalCycles,
	}
	for _, sess := range res.Schedule.Sessions {
		if sess.PeakPower > out.PeakPower {
			out.PeakPower = sess.PeakPower
		}
	}
	for _, c := range res.Cores {
		out.Cores = append(out.Cores, c.Name)
	}
	if res.Brains != nil {
		out.BISTCycles = res.Brains.Cycles
		out.BISTGroups = len(res.Brains.Groups)
	}
	if res.Program != nil {
		for _, s := range res.Program.Sessions {
			out.TranslatedCycles += s.Cycles
		}
	}
	out.InterconnectWires = len(in.Interconnects)
	if res.Verify != nil {
		pass := res.Verify.Pass
		out.VerifyPass = &pass
		out.VerifyCycles = res.Verify.Cycles
	}
	return out, nil
}

// SchedRequest sweeps the session-based scheduler over a list of test-pin
// budgets (the paper's Fig. 6 trade-off curve) on the chip's test set.
// Chip may be any registered scenario name (default "dsc").
type SchedRequest struct {
	Chip        string  `json:"chip,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	TestPins    []int   `json:"test_pins"`
	FuncPins    int     `json:"func_pins,omitempty"`
	MaxPower    float64 `json:"max_power,omitempty"`
	PowerBudget float64 `json:"power_budget,omitempty"`
	Partition   string  `json:"partition,omitempty"`

	Workers   int `json:"workers,omitempty"`    // non-semantic
	TimeoutMS int `json:"timeout_ms,omitempty"` // non-semantic
}

// chip is the sweep's scenario name, "dsc" when unset.
func (r SchedRequest) chip() string {
	if r.Chip == "" {
		return "dsc"
	}
	return r.Chip
}

// SchedPoint is one sweep sample.
type SchedPoint struct {
	TestPins   int     `json:"test_pins"`
	Cycles     int     `json:"cycles,omitempty"`
	Sessions   int     `json:"sessions,omitempty"`
	PeakPower  float64 `json:"peak_power,omitempty"`
	Infeasible bool    `json:"infeasible,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// SchedResponse is the full sweep.
type SchedResponse struct {
	Points []SchedPoint `json:"points"`
}

func (r SchedRequest) run(ctx context.Context) (interface{}, error) {
	if len(r.TestPins) == 0 {
		return nil, badRequestf("test_pins sweep list is empty")
	}
	chip, err := chipByName(r.chip(), r.Seed)
	if err != nil {
		return nil, err
	}
	tests, err := sched.BuildTests(chip.Cores, chip.ExtraBIST)
	if err != nil {
		return nil, err
	}
	base := chip.Resources
	if r.FuncPins > 0 {
		base.FuncPins = r.FuncPins
	}
	if r.MaxPower > 0 {
		base.MaxPower = r.MaxPower
	}
	if r.PowerBudget > 0 {
		base.PowerBudget = r.PowerBudget
	}
	if r.Partition != "" {
		part, err := wrapper.ParsePartitioner(r.Partition)
		if err != nil {
			return nil, errBadRequest{err}
		}
		base.Partitioner = part
	}
	base.Workers = r.Workers

	out := &SchedResponse{}
	for _, pins := range r.TestPins {
		res := base
		res.TestPins = pins
		s, err := sched.SessionBasedContext(ctx, tests, res)
		switch {
		case err == nil:
			peak := 0.0
			for _, sess := range s.Sessions {
				if sess.PeakPower > peak {
					peak = sess.PeakPower
				}
			}
			out.Points = append(out.Points, SchedPoint{TestPins: pins,
				Cycles: s.TotalCycles, Sessions: len(s.Sessions), PeakPower: peak})
		case isInfeasible(err):
			out.Points = append(out.Points, SchedPoint{TestPins: pins,
				Infeasible: true, Error: err.Error()})
		default:
			return nil, err
		}
	}
	return out, nil
}

// MemfaultRequest grades March algorithms by fault simulation on one
// memory geometry (the BRAINS efficiency evaluation).
type MemfaultRequest struct {
	// Algorithms lists catalog names; empty means the full catalog.
	Algorithms []string `json:"algorithms,omitempty"`
	Words      int      `json:"words"`
	Bits       int      `json:"bits"`
	TwoPort    bool     `json:"two_port,omitempty"`
	Seed       int64    `json:"seed,omitempty"`
	// MaxUndetected follows the shared Options convention (0 = cap 32,
	// negative = keep all).
	MaxUndetected int `json:"max_undetected,omitempty"`

	Workers   int `json:"workers,omitempty"`    // non-semantic
	TimeoutMS int `json:"timeout_ms,omitempty"` // non-semantic
}

// MemfaultRow is one algorithm's grade.
type MemfaultRow struct {
	Algorithm  string  `json:"algorithm"`
	Complexity int     `json:"complexity"`
	Cycles     int     `json:"cycles"`
	Total      int     `json:"total_faults"`
	Detected   int     `json:"detected"`
	Coverage   float64 `json:"coverage_percent"`
}

// MemfaultResponse is the evaluation table.
type MemfaultResponse struct {
	Rows []MemfaultRow `json:"rows"`
}

func (r MemfaultRequest) run(ctx context.Context) (interface{}, error) {
	cfg := memoryConfig(r.Words, r.Bits, r.TwoPort)
	if err := cfg.Validate(); err != nil {
		return nil, errBadRequest{err}
	}
	var algs []march.Algorithm
	for _, name := range r.Algorithms {
		alg, err := algorithmByName(name)
		if err != nil {
			return nil, err
		}
		algs = append(algs, alg)
	}
	rows, err := brains.EvaluateContext(ctx, cfg, algs, brains.Options{
		Workers: r.Workers, Seed: r.Seed, MaxUndetected: r.MaxUndetected,
	})
	if err != nil {
		return nil, err
	}
	out := &MemfaultResponse{}
	for _, row := range rows {
		out.Rows = append(out.Rows, MemfaultRow{
			Algorithm: row.Alg.Name, Complexity: row.Complexity, Cycles: row.Cycles,
			Total: row.Coverage.Total, Detected: row.Coverage.Detected,
			Coverage: row.Coverage.Percent(),
		})
	}
	return out, nil
}

// XCheckRequest runs one gate-level differential campaign: "tpg" injects
// faults into a sequencer + TPG bench, "controller" into the shared BIST
// controller, "wrapper" into a Table-1 core's wrapper stack.
type XCheckRequest struct {
	Kind      string `json:"kind"`
	Algorithm string `json:"algorithm,omitempty"`
	Words     int    `json:"words,omitempty"`
	Bits      int    `json:"bits,omitempty"`
	TwoPort   bool   `json:"two_port,omitempty"`
	NGroups   int    `json:"n_groups,omitempty"`
	// Scenario/ChipSeed regenerate a scenario chip as the design source:
	// Memory then names a "tpg" macro on it and Core resolves against its
	// cores instead of the Table-1 inventory.
	Scenario string `json:"scenario,omitempty"`
	ChipSeed int64  `json:"chip_seed,omitempty"`
	Memory   string `json:"memory,omitempty"`
	// Core names the wrapper campaign's core on the Scenario chip; without
	// Scenario it is a Table-1 core (USB, the default, TV or JPEG) of the
	// dsc scenario chip.
	Core      string `json:"core,omitempty"`
	TamWidth  int    `json:"tam_width,omitempty"`
	MaxFaults int    `json:"max_faults,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	// MaxUndetected follows the shared Options convention.
	MaxUndetected int `json:"max_undetected,omitempty"`
	MaxPatterns   int `json:"max_patterns,omitempty"`

	Workers   int `json:"workers,omitempty"`    // non-semantic
	TimeoutMS int `json:"timeout_ms,omitempty"` // non-semantic
}

// XCheckResponse summarizes one campaign.
type XCheckResponse struct {
	Name       string  `json:"name"`
	Sites      int     `json:"sites"`
	Total      int     `json:"total_faults"`
	Detected   int     `json:"detected"`
	Undetected int     `json:"undetected"`
	Coverage   float64 `json:"coverage_percent"`
	Sampled    bool    `json:"sampled,omitempty"`
}

func (r XCheckRequest) run(ctx context.Context) (interface{}, error) {
	opts := xcheck.Options{Workers: r.Workers, Seed: r.Seed,
		MaxUndetected: r.MaxUndetected, MaxFaults: r.MaxFaults, MaxPatterns: r.MaxPatterns}
	var chip *scenario.Chip
	if r.Scenario != "" {
		var err error
		if chip, err = chipByName(r.Scenario, r.ChipSeed); err != nil {
			return nil, err
		}
	}
	var (
		res xcheck.CampaignResult
		err error
	)
	switch r.Kind {
	case "tpg":
		alg, aerr := algorithmByName(r.Algorithm)
		if aerr != nil {
			return nil, aerr
		}
		var cfg memory.Config
		if chip != nil && r.Memory != "" {
			found := false
			for _, m := range chip.Memories {
				if m.Name == r.Memory {
					cfg, found = m, true
					break
				}
			}
			if !found {
				return nil, badRequestf("scenario %q chip has no memory %q", r.Scenario, r.Memory)
			}
		} else {
			cfg = memoryConfig(r.Words, r.Bits, r.TwoPort)
		}
		if verr := cfg.Validate(); verr != nil {
			return nil, errBadRequest{verr}
		}
		res, err = xcheck.TPGCampaignContext(ctx, "tpg", alg, []memory.Config{cfg}, opts)
	case "controller":
		n := r.NGroups
		if n <= 0 {
			n = 2
		}
		res, err = xcheck.ControllerCampaignContext(ctx, "controller", n, opts)
	case "wrapper":
		width := r.TamWidth
		if width <= 0 {
			width = 2
		}
		// A bare core name is a Table-1 core: resolve it on the dsc chip.
		name := r.Core
		if chip == nil {
			if chip, err = chipByName("dsc", 0); err != nil {
				return nil, err
			}
			if name == "" {
				name = "USB"
			}
		}
		var wc *testinfo.Core
		for _, c := range chip.Cores {
			if c.Name == name {
				wc = c
				break
			}
		}
		if wc == nil {
			return nil, badRequestf("scenario %q chip has no core %q", chip.Scenario, name)
		}
		res, err = xcheck.WrapperCampaignContext(ctx, "wrapper", wc, width, opts)
	default:
		return nil, badRequestf("unknown campaign kind %q (tpg, controller or wrapper)", r.Kind)
	}
	if err != nil {
		return nil, err
	}
	return &XCheckResponse{
		Name: res.Name, Sites: res.Sites, Total: res.Total, Detected: res.Detected,
		Undetected: res.UndetectedCount(), Coverage: res.Coverage(), Sampled: res.Sampled(),
	}, nil
}

// catalogRecords implements catalogSource for flow runs: one record per
// run, keyed by the memo-cache content address.  Explicit-STIL submissions
// are skipped — without scenario provenance the chip cannot be regenerated
// for the feature profile, and an unprofiled record cannot anchor a
// recommendation.
func (r FlowRequest) catalogRecords(fingerprint, tenant string, result interface{}, blob []byte) []catalog.Record {
	res, ok := result.(*FlowResponse)
	if !ok {
		return nil
	}
	feat, cfg, ok := chipProfile(r.Chip, r.Seed)
	if !ok {
		return nil
	}
	// Request overrides win over the chip's own defaults — the record must
	// describe the configuration that actually ran.
	if r.TestPins > 0 {
		cfg.TamWidth = r.TestPins
	}
	if r.Partition != "" {
		cfg.Partitioner = r.Partition
	}
	if r.Algorithm != "" {
		cfg.Algorithm = r.Algorithm
	}
	if r.PowerBudget > 0 {
		cfg.PowerBudget = r.PowerBudget
	}
	return []catalog.Record{{
		Fingerprint: fingerprint, Tenant: tenant, Kind: catalog.KindFlow,
		Scenario: r.Chip, Seed: r.Seed,
		Config: cfg, Features: feat,
		Metrics: catalog.Metrics{
			TestCycles: res.ScheduleCycles, Sessions: res.Sessions, PeakPower: res.PeakPower,
		},
		Result: blob,
	}}
}

// catalogRecords implements catalogSource for scheduling sweeps: one
// record per sweep point (including infeasible ones — negative results are
// results), each addressed by a deterministic sub-fingerprint of the sweep
// key so re-running the sweep converges on the same records.
func (r SchedRequest) catalogRecords(fingerprint, tenant string, result interface{}, _ []byte) []catalog.Record {
	res, ok := result.(*SchedResponse)
	if !ok {
		return nil
	}
	chipName := r.chip()
	feat, cfg, ok := chipProfile(chipName, r.Seed)
	if !ok {
		return nil
	}
	if r.Partition != "" {
		cfg.Partitioner = r.Partition
	}
	if r.PowerBudget > 0 {
		cfg.PowerBudget = r.PowerBudget
	}
	recs := make([]catalog.Record, 0, len(res.Points))
	for _, p := range res.Points {
		pcfg := cfg
		pcfg.TamWidth = p.TestPins
		blob, err := json.Marshal(p)
		if err != nil {
			continue
		}
		recs = append(recs, catalog.Record{
			Fingerprint: catalog.SubFingerprint(fingerprint, fmt.Sprintf("pins=%d", p.TestPins)),
			Tenant:      tenant, Kind: catalog.KindSched,
			Scenario: chipName, Seed: r.Seed,
			Config: pcfg, Features: feat,
			Metrics: catalog.Metrics{
				TestCycles: p.Cycles, Sessions: p.Sessions,
				PeakPower: p.PeakPower, Infeasible: p.Infeasible,
			},
			Result: blob,
		})
	}
	return recs
}
