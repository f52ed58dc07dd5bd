package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"steac/internal/brains"
	"steac/internal/core"
	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
	"steac/internal/sched"
	"steac/internal/socgen"
	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

// Chip is one concrete SOC sampled from a scenario spec: everything the
// flow consumes, plus the scenario/seed provenance so any engine result can
// be regenerated from two values.
type Chip struct {
	Scenario string
	Seed     int64

	Cores     []*testinfo.Core
	Memories  []memory.Config
	Blocks    map[string]float64
	Resources sched.Resources
	BIST      brains.Options
	// ExtraBIST holds the Bernardi-style logic-BIST sessions of converted
	// cores, scheduled like BRAINS groups (core.FlowInput.ExtraBIST).
	ExtraBIST []sched.BISTGroup
}

// GenerateByName resolves a registered scenario and samples one chip.
func GenerateByName(name string, seed int64) (*Chip, error) {
	spec, err := Resolve(name)
	if err != nil {
		return nil, err
	}
	return Generate(spec, seed)
}

// Generate samples one chip from a resolved spec.  The stream is seeded
// with seed ⊕ FNV(spec name), and every template is sampled in declaration
// order with a fixed per-field order, so the same (spec, seed) pair always
// yields the identical chip — across runs, GOMAXPROCS values and platforms
// (math/rand's generator is spec-stable).  A fully-pinned spec (all
// distributions fixed, all seeds set) draws nothing and is seed-invariant;
// that is what lets the dsc builtin reproduce Table 1 exactly.
func Generate(spec *Spec, seed int64) (*Chip, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed ^ nameHash(spec.Name)))
	chip := &Chip{Scenario: spec.Name, Seed: seed, Blocks: spec.Blocks}

	seen := map[string]bool{"pll": true, "soc": true}
	for b := range spec.Blocks {
		seen[lower(b)] = true
	}
	for ti := range spec.Cores {
		cs := &spec.Cores[ti]
		count := cs.Count.sample(r, 1)
		for i := 0; i < count; i++ {
			name := cs.Name
			if count > 1 {
				name = fmt.Sprintf("%s%d", cs.Name, i)
			}
			if seen[lower(name)] {
				return nil, fmt.Errorf("%w: core instance %q", ErrDuplicateName, name)
			}
			seen[lower(name)] = true
			chip.Cores = append(chip.Cores, genCore(r, cs, name, int64(i)))
		}
	}
	memSeen := map[string]bool{}
	for ti := range spec.Memories {
		ms := &spec.Memories[ti]
		count := ms.Count.sample(r, 1)
		for i := 0; i < count; i++ {
			name := ms.Name
			if count > 1 {
				name = fmt.Sprintf("%s%d", ms.Name, i)
			}
			if memSeen[name] {
				return nil, fmt.Errorf("%w: memory instance %q", ErrDuplicateName, name)
			}
			memSeen[name] = true
			chip.Memories = append(chip.Memories, genMemory(r, ms, name))
		}
	}

	chip.Resources = sched.Resources{TestPins: 26, FuncPins: 300, Partitioner: wrapper.LPT}
	if rs := spec.Resources; rs != nil {
		if rs.TestPins > 0 {
			chip.Resources.TestPins = rs.TestPins
		}
		if rs.FuncPins > 0 {
			chip.Resources.FuncPins = rs.FuncPins
		}
		chip.Resources.MaxPower = rs.MaxPower
		chip.Resources.PowerBudget = rs.PowerBudget
		part, err := partitionerByName(rs.Partitioner)
		if err != nil {
			return nil, err
		}
		chip.Resources.Partitioner = part
	}
	if bs := spec.BIST; bs != nil {
		if bs.Algorithm != "" {
			alg, ok := march.ByName(bs.Algorithm)
			if !ok {
				return nil, fmt.Errorf("%w: unknown March algorithm %q", ErrBadSpec, bs.Algorithm)
			}
			chip.BIST.Algorithm = alg
		}
		grouping, err := groupingByName(bs.Grouping)
		if err != nil {
			return nil, err
		}
		chip.BIST.Grouping = grouping
		chip.BIST.Backgrounds = bs.Backgrounds
	}

	if lb := spec.LogicBIST; lb != nil && lb.Fraction > 0 {
		applyLogicBIST(r, lb, chip)
	}
	return chip, nil
}

// genCore samples one core instance.  Pin names follow the DSC convention:
// a single clock is "<name>_ck", several are "<name>_ck0..", resets
// "_rst"/"_rst0..", the scan enable "_se", a single test enable "_te",
// several "_t0..", chains "c0.." with "_si0.."/"_so0.." scan IOs and
// "_po_shared" for a functional-shared scan-out.
func genCore(r *rand.Rand, cs *CoreSpec, name string, inst int64) *testinfo.Core {
	low := lower(name)
	c := &testinfo.Core{Name: name, Soft: cs.Soft}
	c.Clocks = pinNames(low, "ck", "ck", cs.Clocks.sample(r, 1))
	c.Resets = pinNames(low, "rst", "rst", cs.Resets.sample(r, 1))
	c.TestEnables = pinNames(low, "te", "t", cs.TestEnables.sample(r, 0))
	c.PIs = cs.PIs.sample(r, 16)
	c.POs = cs.POs.sample(r, 16)

	lengths := cs.ChainLengths
	if len(lengths) == 0 {
		n := cs.Chains.sample(r, 0)
		for k := 0; k < n; k++ {
			lengths = append(lengths, cs.ChainLength.sample(r, 100))
		}
	}
	if len(lengths) > 0 {
		c.ScanEnables = []string{low + "_se"}
		shared := cs.SharedOuts
		if shared > len(lengths) {
			shared = len(lengths)
		}
		for k, l := range lengths {
			out := fmt.Sprintf("%s_so%d", low, k)
			sharedOut := k >= len(lengths)-shared
			if sharedOut {
				out = low + "_po_shared"
				if shared > 1 {
					out = fmt.Sprintf("%s_po_shared%d", low, k-(len(lengths)-shared))
				}
			}
			c.ScanChains = append(c.ScanChains, testinfo.ScanChain{
				Name:      fmt.Sprintf("c%d", k),
				Length:    l,
				In:        fmt.Sprintf("%s_si%d", low, k),
				Out:       out,
				Clock:     c.Clocks[k%len(c.Clocks)],
				SharedOut: sharedOut,
			})
		}
		if n := cs.ScanPatterns.sample(r, 64); n > 0 {
			seed := cs.ScanSeed
			if seed == 0 {
				seed = r.Int63()
			} else {
				seed += inst // distinct patterns per stamped-out instance
			}
			c.Patterns = append(c.Patterns, testinfo.PatternSet{
				Name: "scan", Type: testinfo.Scan, Count: n, Seed: seed,
			})
		}
	}
	if n := cs.FuncPatterns.sample(r, 0); n > 0 {
		seed := cs.FuncSeed
		if seed == 0 {
			seed = r.Int63()
		} else {
			seed += inst
		}
		c.Patterns = append(c.Patterns, testinfo.PatternSet{
			Name: "func", Type: testinfo.Functional, Count: n, Seed: seed,
		})
	}
	return c
}

// pinNames names n control pins: none, a single "<low>_<single>", or
// "<low>_<multi>0..".  The single/multi bases differ for test enables
// ("te" vs "t0.."), matching the DSC cores.
func pinNames(low, single, multi string, n int) []string {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return []string{low + "_" + single}
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s_%s%d", low, multi, i)
	}
	return out
}

func genMemory(r *rand.Rand, ms *MemorySpec, name string) memory.Config {
	cfg := memory.Config{
		Name:  name,
		Words: ms.Words.sample(r, 1024),
		Bits:  ms.Bits.sample(r, 16),
		Kind:  memory.SinglePort,
	}
	twoPort := ms.TwoPort
	if ms.TwoPortFrac > 0 {
		twoPort = r.Float64() < ms.TwoPortFrac
	}
	if twoPort {
		cfg.Kind = memory.TwoPort
	}
	return cfg
}

// applyLogicBIST converts a Bernoulli-selected subset of the scanned cores
// to hybrid logic-BIST (Bernardi-style P1500 logic-core BIST): the core
// keeps ceil(TopUp × patterns) external scan patterns as deterministic
// top-up and gains a fixed-length LBIST session — patterns × (longest
// chain + 1) capture/shift cycles plus a start cycle — that the scheduler
// fills into session slack like any BRAINS group.  The draw runs once per
// scanned core in core order, selected or not, so the sampled stream stays
// aligned regardless of the outcomes.
func applyLogicBIST(r *rand.Rand, lb *LogicBISTSpec, chip *Chip) {
	topUp := lb.TopUp
	if topUp <= 0 {
		topUp = 0.1
	}
	powerScale := lb.PowerScale
	if powerScale <= 0 {
		powerScale = 1
	}
	for _, c := range chip.Cores {
		if !c.HasScan() || c.ScanPatternCount() == 0 {
			continue
		}
		selected := r.Float64() < lb.Fraction
		if !selected {
			continue
		}
		patterns := lb.Patterns.sample(r, 1024)
		longest := 0
		for _, ch := range c.ScanChains {
			if ch.Length > longest {
				longest = ch.Length
			}
		}
		for i := range c.Patterns {
			if c.Patterns[i].Type != testinfo.Scan {
				continue
			}
			kept := int(math.Ceil(float64(c.Patterns[i].Count) * topUp))
			if kept < 1 {
				kept = 1
			}
			c.Patterns[i].Count = kept
		}
		chip.ExtraBIST = append(chip.ExtraBIST, sched.BISTGroup{
			Name:   "lbist." + c.Name,
			Cycles: patterns*(longest+1) + 1,
			Power:  sched.ScanPower(c) * powerScale,
		})
	}
}

// nameHash folds the scenario name into the seed so equal seeds on
// different scenarios sample unrelated streams.
func nameHash(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

func partitionerByName(name string) (wrapper.Partitioner, error) {
	p, err := wrapper.ParsePartitioner(name)
	if err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return p, nil
}

func groupingByName(name string) (brains.Grouping, error) {
	switch name {
	case "", "by-kind":
		return brains.GroupByKind, nil
	case "per-memory":
		return brains.GroupPerMemory, nil
	case "single":
		return brains.GroupSingle, nil
	}
	return brains.GroupByKind, fmt.Errorf("%w: unknown BIST grouping %q (per-memory, by-kind or single)", ErrBadSpec, name)
}

// BuildSOC generates the chip's behavioural SOC netlist via socgen.
func (c *Chip) BuildSOC() (*netlist.Design, error) {
	return socgen.Build(c.Cores, socgen.Options{Name: c.Scenario, Blocks: c.Blocks})
}

// FlowInput assembles the complete STEAC flow input for the chip: emitted
// STIL hand-off files, the generated SOC netlist, resource budget, memory
// inventory, BIST options and the logic-BIST extra groups.
func (c *Chip) FlowInput(verify bool) (core.FlowInput, error) {
	soc, err := c.BuildSOC()
	if err != nil {
		return core.FlowInput{}, err
	}
	stils, err := core.EmitSTIL(c.Cores)
	if err != nil {
		return core.FlowInput{}, err
	}
	return core.FlowInput{
		STIL:        stils,
		SOC:         soc,
		Resources:   c.Resources,
		Memories:    c.Memories,
		BISTOptions: c.BIST,
		ExtraBIST:   c.ExtraBIST,
		Verify:      verify,
	}, nil
}

// memSize orders memories for the selectors below.
func memSize(m memory.Config) int { return m.Words * m.Bits }

// SmallestMemories returns up to n memories sorted by bit count (then
// name) — the macros cheap enough for exhaustive gate-level campaigns.
func (c *Chip) SmallestMemories(n int) []memory.Config {
	out := append([]memory.Config(nil), c.Memories...)
	sort.Slice(out, func(a, b int) bool {
		if memSize(out[a]) != memSize(out[b]) {
			return memSize(out[a]) < memSize(out[b])
		}
		return out[a].Name < out[b].Name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// PairMemories returns the cheapest two memories of identical kind and
// width — the lockstep pair for a multi-memory sequencer group — ordered
// by name.  ok is false when no two memories share a geometry class.
func (c *Chip) PairMemories() (pair [2]memory.Config, ok bool) {
	type class struct {
		kind memory.Kind
		bits int
	}
	groups := map[class][]memory.Config{}
	for _, m := range c.Memories {
		k := class{m.Kind, m.Bits}
		groups[k] = append(groups[k], m)
	}
	bestSum := 0
	for _, mems := range groups {
		if len(mems) < 2 {
			continue
		}
		sort.Slice(mems, func(a, b int) bool {
			if memSize(mems[a]) != memSize(mems[b]) {
				return memSize(mems[a]) < memSize(mems[b])
			}
			return mems[a].Name < mems[b].Name
		})
		sum := memSize(mems[0]) + memSize(mems[1])
		first, second := mems[0], mems[1]
		if first.Name > second.Name {
			first, second = second, first
		}
		if !ok || sum < bestSum || (sum == bestSum && first.Name < pair[0].Name) {
			pair, bestSum, ok = [2]memory.Config{first, second}, sum, true
		}
	}
	return pair, ok
}

// WrapperCore returns the scanned core with the cheapest full wrapper
// verification (patterns × scan bits), or nil when no core has scan
// patterns.  This is the core dscflow and the conformance suite push
// through the full P1500 wrapper differential.
func (c *Chip) WrapperCore() *testinfo.Core {
	var best *testinfo.Core
	bestCost := 0
	for _, core := range c.Cores {
		if !core.HasScan() || core.ScanPatternCount() == 0 {
			continue
		}
		cost := core.ScanPatternCount() * core.TotalScanBits()
		if best == nil || cost < bestCost || (cost == bestCost && core.Name < best.Name) {
			best, bestCost = core, cost
		}
	}
	return best
}
