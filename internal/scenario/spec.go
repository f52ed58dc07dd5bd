// Package scenario is the SOC workload catalog: a registry of named chip
// scenarios — builtin or user-supplied JSON specs with merge/override
// semantics — that parameterize internal/socgen into a seeded,
// deterministic chip generator.  A Spec describes *distributions* (core
// counts, scan-chain structure, IO footprints, memory geometries, resource
// budgets); Generate samples one concrete Chip from it, and the same
// (spec, seed) pair always yields the byte-identical chip.  The paper's
// Table-1 DSC controller is the fully-pinned `dsc` builtin, so the single
// case study every engine was proven on becomes one point of a population.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"steac/internal/march"
)

// Typed errors.  Everything a malformed or malicious spec can trigger maps
// onto one of these sentinels (wrapped with detail), so callers — and the
// fuzz target — can assert failure classes with errors.Is and no spec input
// ever panics.
var (
	// ErrUnknownScenario reports a name absent from the registry.
	ErrUnknownScenario = errors.New("scenario: unknown scenario")
	// ErrBaseCycle reports a base-chain cycle (a spec inheriting, possibly
	// transitively, from itself).
	ErrBaseCycle = errors.New("scenario: base chain cycle")
	// ErrBadDistribution reports an invalid sampling distribution (min >
	// max, empty or out-of-range choices, out-of-range bounds).
	ErrBadDistribution = errors.New("scenario: bad distribution")
	// ErrDuplicateName reports duplicate core/memory/block names, either
	// between templates or between generated instances.
	ErrDuplicateName = errors.New("scenario: duplicate name")
	// ErrBadSpec reports every other structural validation failure.
	ErrBadSpec = errors.New("scenario: invalid spec")
)

// IntDist is a small integer distribution: either a uniform inclusive
// [Min, Max] range or a uniform pick from Choices.  A nil *IntDist means
// "use the generator's default" and draws nothing from the stream.
type IntDist struct {
	Min     int   `json:"min,omitempty"`
	Max     int   `json:"max,omitempty"`
	Choices []int `json:"choices,omitempty"`
}

// clone copies a distribution (nil stays nil).
func (d *IntDist) clone() *IntDist {
	if d == nil {
		return nil
	}
	c := *d
	c.Choices = slices.Clone(d.Choices)
	return &c
}

// fixed pins a distribution to a single value.
func fixed(n int) *IntDist { return &IntDist{Min: n, Max: n} }

// span is the uniform inclusive range [lo, hi].
func span(lo, hi int) *IntDist { return &IntDist{Min: lo, Max: hi} }

// choice is the uniform pick from the given values.
func choice(vals ...int) *IntDist { return &IntDist{Choices: vals} }

// validate bounds-checks the distribution against [lo, hi].
func (d *IntDist) validate(field string, lo, hi int) error {
	if d == nil {
		return nil
	}
	if len(d.Choices) > 0 {
		for _, c := range d.Choices {
			if c < lo || c > hi {
				return fmt.Errorf("%w: %s choice %d outside %d..%d", ErrBadDistribution, field, c, lo, hi)
			}
		}
		return nil
	}
	if d.Min > d.Max {
		return fmt.Errorf("%w: %s min %d > max %d", ErrBadDistribution, field, d.Min, d.Max)
	}
	if d.Min < lo || d.Max > hi {
		return fmt.Errorf("%w: %s range %d..%d outside %d..%d", ErrBadDistribution, field, d.Min, d.Max, lo, hi)
	}
	return nil
}

// sample draws one value; a nil distribution returns def without touching
// the stream, and a pinned range draws nothing either, so adding fixed
// fields to a spec never shifts the values sampled for its other fields.
func (d *IntDist) sample(r *rand.Rand, def int) int {
	if d == nil {
		return def
	}
	if len(d.Choices) > 0 {
		return d.Choices[r.Intn(len(d.Choices))]
	}
	if d.Max <= d.Min {
		return d.Min
	}
	return d.Min + r.Intn(d.Max-d.Min+1)
}

// CoreSpec is one core template.  Count instances are stamped out per chip;
// with Count > 1 instances are named "<Name>0", "<Name>1", ....  Pin names
// follow the DSC convention ("<name>_ck", "<name>_si0", ...), which is what
// lets the fully-pinned dsc builtin reproduce Table 1 exactly.
type CoreSpec struct {
	Name string `json:"name"`
	// Count is the instance count distribution (default 1).
	Count *IntDist `json:"count,omitempty"`
	// Soft marks a soft (mergeable) core.
	Soft bool `json:"soft,omitempty"`
	// Clocks/Resets/TestEnables are control-pin count distributions
	// (defaults 1/1/0).
	Clocks      *IntDist `json:"clocks,omitempty"`
	Resets      *IntDist `json:"resets,omitempty"`
	TestEnables *IntDist `json:"test_enables,omitempty"`
	// PIs/POs are functional IO count distributions (defaults 16/16).
	PIs *IntDist `json:"pis,omitempty"`
	POs *IntDist `json:"pos,omitempty"`
	// Chains is the scan-chain count distribution (default 0 = no scan);
	// ChainLength is drawn per chain.  ChainLengths, when set, pins the
	// chain structure explicitly and overrides both.
	Chains       *IntDist `json:"chains,omitempty"`
	ChainLength  *IntDist `json:"chain_length,omitempty"`
	ChainLengths []int    `json:"chain_lengths,omitempty"`
	// SharedOuts makes the last N chains share their scan-out with a
	// functional output (clamped to the sampled chain count).
	SharedOuts int `json:"shared_outs,omitempty"`
	// ScanPatterns/FuncPatterns are pattern-count distributions (defaults
	// 64 when scanned / 0).
	ScanPatterns *IntDist `json:"scan_patterns,omitempty"`
	FuncPatterns *IntDist `json:"func_patterns,omitempty"`
	// ScanSeed/FuncSeed pin the ATPG substitute seeds (0 = derive from the
	// chip seed stream).
	ScanSeed int64 `json:"scan_seed,omitempty"`
	FuncSeed int64 `json:"func_seed,omitempty"`
	// Remove, in a derived spec, drops the base template of the same name.
	Remove bool `json:"remove,omitempty"`
}

// MemorySpec is one embedded-SRAM template; Count instances are stamped out
// with the same naming rule as cores.
type MemorySpec struct {
	Name  string   `json:"name"`
	Count *IntDist `json:"count,omitempty"`
	// Words/Bits are geometry distributions (defaults 1024/16).
	Words *IntDist `json:"words,omitempty"`
	Bits  *IntDist `json:"bits,omitempty"`
	// TwoPort pins the port kind; TwoPortFrac instead draws it per
	// instance with the given probability.
	TwoPort     bool    `json:"two_port,omitempty"`
	TwoPortFrac float64 `json:"two_port_frac,omitempty"`
	// Remove, in a derived spec, drops the base template of the same name.
	Remove bool `json:"remove,omitempty"`
}

// ResourceSpec overrides the chip test-resource budget; zero fields keep
// the base (or default) value.
type ResourceSpec struct {
	TestPins int     `json:"test_pins,omitempty"`
	FuncPins int     `json:"func_pins,omitempty"`
	MaxPower float64 `json:"max_power,omitempty"`
	// PowerBudget is the Sadredini-style per-session summed-power envelope
	// (sched.Resources.PowerBudget; 0 = unbounded).
	PowerBudget float64 `json:"power_budget,omitempty"`
	// Partitioner is "lpt", "firstfit" or "optimal".
	Partitioner string `json:"partitioner,omitempty"`
}

// BISTSpec overrides the BRAINS compilation options.
type BISTSpec struct {
	// Algorithm is a march.Catalog name (default March C-).
	Algorithm string `json:"algorithm,omitempty"`
	// Grouping is "per-memory", "by-kind" or "single" (default by-kind).
	Grouping string `json:"grouping,omitempty"`
	// Backgrounds is the data-background count (0 = engine default).
	Backgrounds int `json:"backgrounds,omitempty"`
}

// LogicBISTSpec turns scanned cores into Bernardi-style P1500 hybrid
// logic-BIST cores: a selected core keeps only a top-up fraction of its
// external scan patterns and gains a fixed-length on-chip LBIST session
// scheduled like a BIST group.
type LogicBISTSpec struct {
	// Fraction of scanned cores converted (per-core Bernoulli draw).
	Fraction float64 `json:"fraction"`
	// Patterns is the on-chip pseudo-random pattern count (default 1024).
	Patterns *IntDist `json:"patterns,omitempty"`
	// TopUp is the fraction of external scan patterns kept as determinstic
	// top-up (default 0.1, minimum one pattern).
	TopUp float64 `json:"top_up,omitempty"`
	// PowerScale scales the LBIST session power relative to the core's
	// external scan power estimate (default 1).
	PowerScale float64 `json:"power_scale,omitempty"`
}

// Spec is one named scenario.  Base names another registered scenario whose
// resolved spec this one overrides: cores and memories merge by template
// name (same name replaces, Remove deletes, new names append), Blocks merge
// by key (zero area deletes), Resources/BIST merge field-wise, LogicBIST
// replaces wholesale.
type Spec struct {
	Name        string             `json:"name"`
	Description string             `json:"description,omitempty"`
	Base        string             `json:"base,omitempty"`
	Cores       []CoreSpec         `json:"cores,omitempty"`
	Memories    []MemorySpec       `json:"memories,omitempty"`
	Blocks      map[string]float64 `json:"blocks,omitempty"`
	Resources   *ResourceSpec      `json:"resources,omitempty"`
	BIST        *BISTSpec          `json:"bist,omitempty"`
	LogicBIST   *LogicBISTSpec     `json:"logic_bist,omitempty"`
}

// ParseSpec decodes a JSON scenario spec strictly: unknown fields are
// rejected (typos in a distribution name must not silently become "use the
// default"), and every failure wraps ErrBadSpec.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	// Trailing garbage after the object is a malformed file, not an
	// extension point.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after spec object", ErrBadSpec)
	}
	return &s, nil
}

// Structural caps.  They bound what a hostile spec can make Generate build
// (the fuzz target runs Generate on every parsed spec), and they keep every
// scenario chip in the regime the engines are tested in.
const (
	maxNameLen      = 32
	maxCoreKinds    = 32
	maxCoreCount    = 16
	maxControlPins  = 16
	maxIOs          = 2048
	maxChains       = 32
	maxChainLength  = 65536
	maxScanPatterns = 100000
	maxFuncPatterns = 1000000
	maxMemoryKinds  = 64
	maxMemoryCount  = 32
	maxMemoryWords  = 1 << 20
	maxBlocks       = 32
	maxBlockArea    = 1e9
	maxLBISTPattern = 100000
)

// identOK reports whether a name is a safe Verilog-ish identifier.
func identOK(name string) bool {
	if name == "" || len(name) > maxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// scenarioNameOK additionally allows '-' and '.' (registry names never
// become netlist identifiers).
func scenarioNameOK(name string) bool {
	if name == "" || len(name) > 2*maxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '_' || c == '-' || c == '.':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Validate checks a resolved spec structurally.  It is cheap (no sampling,
// no netlist work) and complete: a spec that validates cannot make Generate
// panic, only — at worst — produce a chip some engine rejects with an
// error.
func (s *Spec) Validate() error {
	if !scenarioNameOK(s.Name) {
		return fmt.Errorf("%w: bad scenario name %q", ErrBadSpec, s.Name)
	}
	if len(s.Cores) == 0 {
		return fmt.Errorf("%w: scenario %s has no core templates", ErrBadSpec, s.Name)
	}
	if len(s.Cores) > maxCoreKinds {
		return fmt.Errorf("%w: %d core templates (max %d)", ErrBadSpec, len(s.Cores), maxCoreKinds)
	}
	if len(s.Memories) > maxMemoryKinds {
		return fmt.Errorf("%w: %d memory templates (max %d)", ErrBadSpec, len(s.Memories), maxMemoryKinds)
	}
	seen := map[string]bool{}
	for i := range s.Cores {
		if err := s.Cores[i].validate(); err != nil {
			return err
		}
		low := lower(s.Cores[i].Name)
		if seen[low] {
			return fmt.Errorf("%w: core template %q (names are case-insensitively unique)", ErrDuplicateName, s.Cores[i].Name)
		}
		seen[low] = true
	}
	memSeen := map[string]bool{}
	for i := range s.Memories {
		if err := s.Memories[i].validate(); err != nil {
			return err
		}
		if memSeen[s.Memories[i].Name] {
			return fmt.Errorf("%w: memory template %q", ErrDuplicateName, s.Memories[i].Name)
		}
		memSeen[s.Memories[i].Name] = true
	}
	if len(s.Blocks) > maxBlocks {
		return fmt.Errorf("%w: %d blocks (max %d)", ErrBadSpec, len(s.Blocks), maxBlocks)
	}
	for name, area := range s.Blocks {
		if !identOK(name) || name == "pll" || name == "soc" || hasPrefix(name, "core_") {
			return fmt.Errorf("%w: bad block name %q", ErrBadSpec, name)
		}
		if area < 0 || area > maxBlockArea {
			return fmt.Errorf("%w: block %q area %g", ErrBadSpec, name, area)
		}
	}
	if r := s.Resources; r != nil {
		if r.TestPins < 0 || r.TestPins > 4096 || r.FuncPins < 0 || r.FuncPins > 1<<20 {
			return fmt.Errorf("%w: resource pin budget out of range", ErrBadSpec)
		}
		if r.MaxPower < 0 || r.PowerBudget < 0 {
			return fmt.Errorf("%w: negative power budget", ErrBadSpec)
		}
		if _, err := partitionerByName(r.Partitioner); err != nil {
			return err
		}
	}
	if b := s.BIST; b != nil {
		if b.Algorithm != "" {
			if _, ok := march.ByName(b.Algorithm); !ok {
				return fmt.Errorf("%w: unknown March algorithm %q", ErrBadSpec, b.Algorithm)
			}
		}
		if _, err := groupingByName(b.Grouping); err != nil {
			return err
		}
		if b.Backgrounds < 0 || b.Backgrounds > 8 {
			return fmt.Errorf("%w: %d BIST backgrounds (max 8)", ErrBadSpec, b.Backgrounds)
		}
	}
	if lb := s.LogicBIST; lb != nil {
		if lb.Fraction < 0 || lb.Fraction > 1 {
			return fmt.Errorf("%w: logic-BIST fraction %g outside [0,1]", ErrBadSpec, lb.Fraction)
		}
		if lb.TopUp < 0 || lb.TopUp > 1 {
			return fmt.Errorf("%w: logic-BIST top-up %g outside [0,1]", ErrBadSpec, lb.TopUp)
		}
		if lb.PowerScale < 0 || lb.PowerScale > 16 {
			return fmt.Errorf("%w: logic-BIST power scale %g outside [0,16]", ErrBadSpec, lb.PowerScale)
		}
		if err := lb.Patterns.validate("logic_bist.patterns", 1, maxLBISTPattern); err != nil {
			return err
		}
	}
	return nil
}

func (c *CoreSpec) validate() error {
	if !identOK(c.Name) {
		return fmt.Errorf("%w: bad core name %q", ErrBadSpec, c.Name)
	}
	if c.Remove {
		return nil // only the name matters for a removal marker
	}
	checks := []struct {
		d      *IntDist
		field  string
		lo, hi int
	}{
		{c.Count, c.Name + ".count", 1, maxCoreCount},
		{c.Clocks, c.Name + ".clocks", 1, maxControlPins},
		{c.Resets, c.Name + ".resets", 0, maxControlPins},
		{c.TestEnables, c.Name + ".test_enables", 0, maxControlPins},
		{c.PIs, c.Name + ".pis", 0, maxIOs},
		{c.POs, c.Name + ".pos", 0, maxIOs},
		{c.Chains, c.Name + ".chains", 0, maxChains},
		{c.ChainLength, c.Name + ".chain_length", 1, maxChainLength},
		{c.ScanPatterns, c.Name + ".scan_patterns", 0, maxScanPatterns},
		{c.FuncPatterns, c.Name + ".func_patterns", 0, maxFuncPatterns},
	}
	for _, ck := range checks {
		if err := ck.d.validate(ck.field, ck.lo, ck.hi); err != nil {
			return err
		}
	}
	if len(c.ChainLengths) > maxChains {
		return fmt.Errorf("%w: %s has %d explicit chains (max %d)", ErrBadSpec, c.Name, len(c.ChainLengths), maxChains)
	}
	for _, l := range c.ChainLengths {
		if l < 1 || l > maxChainLength {
			return fmt.Errorf("%w: %s explicit chain length %d", ErrBadSpec, c.Name, l)
		}
	}
	if c.SharedOuts < 0 || c.SharedOuts > maxChains {
		return fmt.Errorf("%w: %s shared_outs %d", ErrBadSpec, c.Name, c.SharedOuts)
	}
	return nil
}

func (m *MemorySpec) validate() error {
	if !identOK(m.Name) {
		return fmt.Errorf("%w: bad memory name %q", ErrBadSpec, m.Name)
	}
	if m.Remove {
		return nil
	}
	checks := []struct {
		d      *IntDist
		field  string
		lo, hi int
	}{
		{m.Count, m.Name + ".count", 1, maxMemoryCount},
		{m.Words, m.Name + ".words", 1, maxMemoryWords},
		{m.Bits, m.Name + ".bits", 1, 64},
	}
	for _, ck := range checks {
		if err := ck.d.validate(ck.field, ck.lo, ck.hi); err != nil {
			return err
		}
	}
	if m.TwoPortFrac < 0 || m.TwoPortFrac > 1 {
		return fmt.Errorf("%w: %s two_port_frac %g outside [0,1]", ErrBadSpec, m.Name, m.TwoPortFrac)
	}
	return nil
}

func lower(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
