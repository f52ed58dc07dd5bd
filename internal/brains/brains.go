// Package brains implements the BRAINS memory-BIST compiler of the paper:
// given the embedded memory configurations of an SOC, it plans sequencer
// groups, schedules them into power-bounded BIST sessions, generates the
// BIST circuitry (via package bist), estimates test time and hardware cost,
// and evaluates March-algorithm test efficiency by fault simulation.
//
// BRAINS is usable three ways, mirroring the paper: programmatically
// (Compile), through a command shell (Shell, used by cmd/brains), and
// integrated into the STEAC platform (package core calls Compile and
// schedules the resulting BIST sessions alongside the logic-core tests,
// Fig. 4).
package brains

import (
	"context"
	"fmt"
	"math"
	"sort"

	"steac/internal/bist"
	"steac/internal/march"
	"steac/internal/memfault"
	"steac/internal/memory"
	"steac/internal/netlist"
)

// Grouping selects how memories are assigned to sequencers.
type Grouping int

// Grouping strategies.
const (
	// GroupByKind shares one sequencer among all single-port memories and
	// one among all two-port memories (the BRAINS default: heterogeneous
	// sizes are fine because each TPG paces its own address space).
	GroupByKind Grouping = iota
	// GroupSingle drives every memory from one shared sequencer.
	GroupSingle
	// GroupPerMemory gives every memory its own sequencer (fastest
	// possible parallel test, largest hardware).
	GroupPerMemory
)

// String names the strategy.
func (g Grouping) String() string {
	switch g {
	case GroupByKind:
		return "by-kind"
	case GroupSingle:
		return "single"
	case GroupPerMemory:
		return "per-memory"
	}
	return fmt.Sprintf("Grouping(%d)", int(g))
}

// Options configures a compilation.
type Options struct {
	// Algorithm is the March test to program into the sequencers
	// (default March C-, the BRAINS default).
	Algorithm march.Algorithm
	// Grouping is the sequencer-sharing strategy (default GroupByKind).
	Grouping Grouping
	// MaxPower bounds the summed power of concurrently tested memories,
	// in the units of Power().  Zero means unbounded (everything runs in
	// one parallel session).
	MaxPower float64
	// ClockMHz converts cycles to wall time in reports (default 100).
	ClockMHz float64
	// Backgrounds selects how many data backgrounds each group runs:
	// 1 (default) = solid only; 2 = solid + checkerboard, which sensitizes
	// intra-word coupling faults at twice the test time.
	Backgrounds int
	// Retention enables the data-retention test: a pause of
	// RetentionPauseCycles before the background read and the complement
	// read (DRF decay windows).
	Retention bool
	// RetentionPauseCycles is the pause length in tester cycles (default
	// 10000 ≈ 100 µs at 100 MHz; real retention delays are longer, but the
	// cycle count is the knob and scales linearly).
	RetentionPauseCycles int
	// PortBTest appends a write-A/read-B verification pass for two-port
	// macros (catches read-port defects the port-A March cannot see).
	PortBTest bool
	// Workers is the goroutine count used by fault-simulation evaluation
	// (see memfault.Options.Workers).  0 means runtime.GOMAXPROCS(0).
	Workers int
	// Seed varies any sampling or stochastic choice the evaluation engines
	// make, under the repository-wide Options convention (see DESIGN.md).
	// It is forwarded to memfault.Options.Seed; 0 means the canonical
	// deterministic defaults.
	Seed int64
	// MaxUndetected caps the surviving-fault lists the evaluation keeps for
	// reports (forwarded to memfault.Options.MaxUndetected; 0 = default cap
	// of 32, negative = keep every survivor).
	MaxUndetected int
}

// memfaultOptions forwards the shared engine-option fields to memfault.
func (o Options) memfaultOptions() memfault.Options {
	return memfault.Options{Workers: o.Workers, Seed: o.Seed, MaxUndetected: o.MaxUndetected}
}

func (o Options) withDefaults() Options {
	if o.Algorithm.Name == "" {
		o.Algorithm = march.MarchCMinus()
	}
	if o.ClockMHz == 0 {
		o.ClockMHz = 100
	}
	if o.Backgrounds < 1 {
		o.Backgrounds = 1
	}
	if o.Retention && o.RetentionPauseCycles == 0 {
		o.RetentionPauseCycles = 10000
	}
	return o
}

// Power estimates the test-mode power of one memory macro in arbitrary
// units (1 unit ≈ the switching power of a small 1 Kb macro).  The square
// root captures that bigger macros activate longer bit lines but only one
// word line at a time.
func Power(cfg memory.Config) float64 {
	p := 1 + math.Sqrt(float64(cfg.BitCount()))/32
	if cfg.Kind == memory.TwoPort {
		p *= 1.25
	}
	return p
}

// Session is one power-feasible set of groups tested in parallel.
type Session struct {
	Groups []int // indices into Result.Groups
	Cycles int   // session length = max group length
	Power  float64
}

// Result is a completed BRAINS compilation.
type Result struct {
	Opts     Options
	Groups   []bist.GroupSpec
	Sessions []Session
	// Design is the generated BIST netlist, linted when it is built;
	// test insertion relies on that and does not lint it again.
	Design *netlist.Design
	Top    *netlist.Module
	Area   bist.AreaReport

	// Cycles is the total BIST test time: the sum of the session lengths.
	Cycles int
}

// TestTimeMS converts Cycles to milliseconds at the configured clock.
func (r *Result) TestTimeMS() float64 {
	return float64(r.Cycles) / (r.Opts.ClockMHz * 1e3)
}

// GroupCycles returns the test length of one planned group (one March pass
// per data background).
func GroupCycles(g bist.GroupSpec) int {
	maxWords := 0
	for _, m := range g.Mems {
		if m.Words > maxWords {
			maxWords = m.Words
		}
	}
	passes := len(g.Backgrounds)
	if passes < 1 {
		passes = 1
	}
	total := (g.Alg.Complexity()*maxWords + len(g.PauseBefore)*g.PauseCycles) * passes
	if g.TestPortB {
		maxB := 0
		for _, m := range g.Mems {
			if m.Kind == memory.TwoPort && m.Words > maxB {
				maxB = m.Words
			}
		}
		total += 4 * maxB
	}
	return total
}

// GroupPower returns the summed power of one planned group (all its
// memories switch together).
func GroupPower(g bist.GroupSpec) float64 {
	p := 0.0
	for _, m := range g.Mems {
		p += Power(m)
	}
	return p
}

// CompileContext plans and generates the BIST subsystem for the given memories.
//
// Compilation itself is pure
// planning plus netlist generation — fast compared to the simulation
// engines — so ctx is checked between its phases rather than inside them;
// a canceled compile returns ctx.Err() wrapped with the stage name.
func CompileContext(ctx context.Context, mems []memory.Config, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if len(mems) == 0 {
		return nil, fmt.Errorf("brains: no memories")
	}
	seen := make(map[string]bool)
	for _, m := range mems {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("brains: %w", err)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("brains: duplicate memory name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if err := opts.Algorithm.Validate(); err != nil {
		return nil, fmt.Errorf("brains: %w", err)
	}

	groups, err := plan(mems, opts)
	if err != nil {
		return nil, err
	}
	sessions := scheduleSessions(groups, opts.MaxPower)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("brains: compile: %w", err)
	}

	design := netlist.NewDesign("brains_bist", nil)
	top, area, err := bist.GenerateBIST(design, "membist", groups)
	if err != nil {
		return nil, fmt.Errorf("brains: generating BIST netlist: %w", err)
	}
	// An alias has its source's body, so it would get its source's lint
	// result: lint each distinct body once.
	var bodies []string
	for _, name := range design.ModuleNames() {
		if design.Modules[name].AliasOf() == "" {
			bodies = append(bodies, name)
		}
	}
	if issues := design.LintModules(bodies); len(issues) != 0 {
		return nil, fmt.Errorf("brains: generated netlist fails lint: %v", issues[0])
	}

	res := &Result{
		Opts: opts, Groups: groups, Sessions: sessions,
		Design: design, Top: top, Area: area,
	}
	for _, s := range sessions {
		res.Cycles += s.Cycles
	}
	return res, nil
}

func plan(mems []memory.Config, opts Options) ([]bist.GroupSpec, error) {
	var pauses []int
	pauseCyc := 0
	if opts.Retention {
		pauses = memfault.RetentionPauses()
		pauseCyc = opts.RetentionPauseCycles
	}
	var bgs []uint64
	if opts.Backgrounds >= 2 {
		maxBits := 0
		for _, m := range mems {
			if m.Bits > maxBits {
				maxBits = m.Bits
			}
		}
		bgs = []uint64{0, memfault.Checkerboard(maxBits)}
	}
	var groups []bist.GroupSpec
	switch opts.Grouping {
	case GroupSingle:
		groups = []bist.GroupSpec{{Name: "all", Alg: opts.Algorithm, Mems: mems, Backgrounds: bgs,
			PauseBefore: pauses, PauseCycles: pauseCyc, TestPortB: opts.PortBTest}}
	case GroupPerMemory:
		for _, m := range mems {
			groups = append(groups, bist.GroupSpec{Name: m.Name, Alg: opts.Algorithm,
				Mems: []memory.Config{m}, Backgrounds: bgs,
				PauseBefore: pauses, PauseCycles: pauseCyc, TestPortB: opts.PortBTest})
		}
	case GroupByKind:
		var sp, tp []memory.Config
		for _, m := range mems {
			if m.Kind == memory.TwoPort {
				tp = append(tp, m)
			} else {
				sp = append(sp, m)
			}
		}
		if len(sp) > 0 {
			groups = append(groups, bist.GroupSpec{Name: "sp", Alg: opts.Algorithm, Mems: sp, Backgrounds: bgs,
				PauseBefore: pauses, PauseCycles: pauseCyc, TestPortB: opts.PortBTest})
		}
		if len(tp) > 0 {
			groups = append(groups, bist.GroupSpec{Name: "tp", Alg: opts.Algorithm, Mems: tp, Backgrounds: bgs,
				PauseBefore: pauses, PauseCycles: pauseCyc, TestPortB: opts.PortBTest})
		}
	default:
		return nil, fmt.Errorf("brains: unknown grouping %d", int(opts.Grouping))
	}
	return groups, nil
}

// scheduleSessions packs groups into power-feasible parallel sessions using
// first-fit decreasing on power.  With no power bound everything lands in
// one session (fully parallel BIST).  A single group whose own power exceeds
// the bound cannot be split further and gets a session of its own.
func scheduleSessions(groups []bist.GroupSpec, maxPower float64) []Session {
	idx := make([]int, len(groups))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return GroupPower(groups[idx[a]]) > GroupPower(groups[idx[b]])
	})
	var sessions []Session
	for _, gi := range idx {
		p := GroupPower(groups[gi])
		placed := false
		if maxPower > 0 {
			for si := range sessions {
				if sessions[si].Power+p <= maxPower {
					sessions[si].Groups = append(sessions[si].Groups, gi)
					sessions[si].Power += p
					placed = true
					break
				}
			}
		} else if len(sessions) > 0 {
			sessions[0].Groups = append(sessions[0].Groups, gi)
			sessions[0].Power += p
			placed = true
		}
		if !placed {
			sessions = append(sessions, Session{Groups: []int{gi}, Power: p})
		}
	}
	for si := range sessions {
		sort.Ints(sessions[si].Groups)
		for _, gi := range sessions[si].Groups {
			if c := GroupCycles(groups[gi]); c > sessions[si].Cycles {
				sessions[si].Cycles = c
			}
		}
	}
	return sessions
}

// NewEngine builds a behavioural BIST engine for a compiled plan.  rams
// supplies the live memory instances by name; names missing from the map
// get fresh fault-free SRAMs.  The engine runs groups serially, matching
// the worst-case session order; use it for go/no-go self-test simulation.
func NewEngine(res *Result, rams map[string]memory.RAM) (*bist.Engine, error) {
	groups := make([]bist.Group, len(res.Groups))
	for i, gs := range res.Groups {
		g := bist.Group{Name: gs.Name, Alg: gs.Alg, Backgrounds: gs.Backgrounds,
			PauseBefore: gs.PauseBefore, PauseCycles: gs.PauseCycles,
			TestPortB: gs.TestPortB}
		for _, cfg := range gs.Mems {
			ram, ok := rams[cfg.Name]
			if !ok {
				fresh, err := memory.New(cfg)
				if err != nil {
					return nil, err
				}
				ram = fresh
			}
			g.Mems = append(g.Mems, bist.MemoryUnderTest{RAM: ram})
		}
		groups[i] = g
	}
	return bist.NewEngine(groups, bist.Serial)
}

// EvalRow is one line of the March-efficiency evaluation (paper §2:
// "evaluate the memory test efficiency among different designs").
type EvalRow struct {
	Alg        march.Algorithm
	Complexity int
	Cycles     int // test length on the evaluated geometry
	Coverage   memfault.Campaign
}

// EvaluateContext fault-simulates every catalog algorithm over the full generated
// fault list of the given (small) geometry and reports test length vs
// coverage, the efficiency trade-off BRAINS shows its users.
//
// Each algorithm's coverage campaign fans its fault list across opts.Workers
// goroutines (see memfault.Options; Seed and MaxUndetected are forwarded
// under the shared convention); the rows come back in algorithm order
// regardless of the worker count.  A canceled evaluation returns the
// campaign engine's wrapped ctx.Err() and no partial rows.
func EvaluateContext(ctx context.Context, cfg memory.Config, algs []march.Algorithm, opts Options) ([]EvalRow, error) {
	if len(algs) == 0 {
		algs = march.Catalog()
	}
	faults := memfault.AllFaults(cfg)
	rows := make([]EvalRow, 0, len(algs))
	for _, a := range algs {
		camp, err := memfault.CoverageContext(ctx, a, cfg, faults, opts.memfaultOptions())
		if err != nil {
			return nil, err
		}
		rows = append(rows, EvalRow{
			Alg: a, Complexity: a.Complexity(), Cycles: a.Length(cfg.Words), Coverage: camp,
		})
	}
	return rows, nil
}
