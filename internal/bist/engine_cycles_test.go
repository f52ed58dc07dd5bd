package bist

import (
	"math/rand"
	"testing"

	"steac/internal/march"
	"steac/internal/memory"
)

// analyticGroupCycles recomputes the March test-time formula from first
// principles — complexity summed per element times the pacing word count,
// scaled by data backgrounds, plus retention pauses and the port-B pass —
// independently of Group.Cycles, so the two implementations check each
// other.
func analyticGroupCycles(g Group) int {
	maxWords, maxTwoPort := 0, 0
	for _, m := range g.Mems {
		cfg := m.RAM.Config()
		if cfg.Words > maxWords {
			maxWords = cfg.Words
		}
		if cfg.Kind == memory.TwoPort && cfg.Words > maxTwoPort {
			maxTwoPort = cfg.Words
		}
	}
	marchOps := 0
	for _, e := range g.Alg.Elements {
		marchOps += len(e.Ops)
	}
	total := marchOps*maxWords + len(g.PauseBefore)*g.PauseCycles
	if n := len(g.Backgrounds); n > 1 {
		total *= n
	}
	if g.TestPortB {
		total += 4 * maxTwoPort
	}
	return total
}

func mustRAM(t *testing.T, cfg memory.Config) memory.RAM {
	t.Helper()
	m, err := memory.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestEngineCyclesMatchAnalyticFormulas sweeps every catalog algorithm over
// both port kinds and randomized (non-power-of-two included) geometries and
// asserts the behavioural engine consumes exactly the analytic cycle count
// — the cycle-accuracy contract every schedule and report relies on.
func TestEngineCyclesMatchAnalyticFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for _, alg := range march.Catalog() {
		if err := alg.Validate(); err != nil {
			t.Fatalf("%s: %v", alg.Name, err)
		}
		for _, kind := range []memory.Kind{memory.SinglePort, memory.TwoPort} {
			for trial := 0; trial < 6; trial++ {
				words := 2 + rng.Intn(600)
				bits := 1 + rng.Intn(33)
				cfg := memory.Config{Name: "m", Words: words, Bits: bits, Kind: kind}
				g := Group{Name: "g", Alg: alg,
					Mems: []MemoryUnderTest{{RAM: mustRAM(t, cfg)}}}
				// Randomly layer on the optional passes.
				if rng.Intn(2) == 1 {
					g.Backgrounds = []uint64{0, 0x5555555555555555 & cfg.Mask()}
				}
				if rng.Intn(2) == 1 {
					g.PauseBefore = []int{1 + rng.Intn(len(alg.Elements)-1+1)}
					if g.PauseBefore[0] >= len(alg.Elements) {
						g.PauseBefore[0] = len(alg.Elements) - 1
					}
					g.PauseCycles = 1 + rng.Intn(500)
				}
				if kind == memory.TwoPort && rng.Intn(2) == 1 {
					g.TestPortB = true
				}
				want := analyticGroupCycles(g)
				if got := g.Cycles(); got != want {
					t.Fatalf("%s %s %dx%d: Group.Cycles=%d, analytic=%d",
						alg.Name, kind, words, bits, got, want)
				}
				e, err := NewEngine([]Group{g}, Serial)
				if err != nil {
					t.Fatal(err)
				}
				res := mustRun(t, e)
				if !res.Pass {
					t.Fatalf("%s %s %dx%d: fault-free run failed", alg.Name, kind, words, bits)
				}
				if res.Cycles != want {
					t.Fatalf("%s %s %dx%d: engine ran %d cycles, analytic %d",
						alg.Name, kind, words, bits, res.Cycles, want)
				}
				if p := e.PredictedCycles(); p != want {
					t.Fatalf("%s %s %dx%d: PredictedCycles=%d, analytic=%d",
						alg.Name, kind, words, bits, p, want)
				}
			}
		}
	}
}

// TestEngineCyclesMixedGroupAndSchedules checks the pacing rule (the
// largest memory paces a lockstep group) and both schedule reductions.
func TestEngineCyclesMixedGroupAndSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		alg := march.Catalog()[rng.Intn(len(march.Catalog()))]
		nGroups := 1 + rng.Intn(3)
		groups := make([]Group, nGroups)
		for gi := range groups {
			nMems := 1 + rng.Intn(4)
			mems := make([]MemoryUnderTest, nMems)
			for mi := range mems {
				cfg := memory.Config{
					Name:  "m",
					Words: 2 + rng.Intn(300),
					Bits:  1 + rng.Intn(16),
				}
				mems[mi] = MemoryUnderTest{RAM: mustRAM(t, cfg)}
			}
			groups[gi] = Group{Name: "g", Alg: alg, Mems: mems}
		}
		serialWant, parallelWant := 0, 0
		for _, g := range groups {
			c := analyticGroupCycles(g)
			serialWant += c
			if c > parallelWant {
				parallelWant = c
			}
		}
		for _, sched := range []Schedule{Serial, Parallel} {
			want := serialWant
			if sched == Parallel {
				want = parallelWant
			}
			e, err := NewEngine(groups, sched)
			if err != nil {
				t.Fatal(err)
			}
			res := mustRun(t, e)
			if res.Cycles != want || e.PredictedCycles() != want {
				t.Fatalf("trial %d %s: engine=%d predicted=%d analytic=%d",
					trial, sched, res.Cycles, e.PredictedCycles(), want)
			}
		}
	}
}
