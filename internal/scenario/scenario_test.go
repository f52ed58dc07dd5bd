package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"steac/internal/sched"
	"steac/internal/wrapper"
)

// builtins are the registered builtin scenarios.  Tests iterate them, not
// Names(): TestTypedErrors registers deliberately broken specs into the
// process-global registry, and under -shuffle those may already be there.
var builtins = []string{"dsc", "hybrid-power", "manycore", "memory-heavy", "p1500-lbist"}

// dscBlocks and dscResources are the paper chip's unwrapped-block areas
// and test budget: 26 dedicated test pins, 300 functional pads, a power
// budget that keeps a large SRAM from switching alongside a scanning core.
var (
	dscBlocks    = map[string]float64{"processor": 60000, "extmem": 18000, "glue": 13000}
	dscResources = sched.Resources{TestPins: 26, FuncPins: 300, MaxPower: 34, Partitioner: wrapper.LPT}
)

// TestDSCReproducesTable1 is the anchor of the whole registry: the fully
// pinned dsc builtin must regenerate the same chip — cores, memories,
// blocks and resource budget — for any seed, because a point-mass spec
// draws nothing from the sample stream.  dsc_test.go pins that chip's
// Table-1 values.
func TestDSCReproducesTable1(t *testing.T) {
	want, err := GenerateByName("dsc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Resources, dscResources) {
		t.Fatalf("resources = %+v, want %+v", want.Resources, dscResources)
	}
	if !reflect.DeepEqual(want.Blocks, dscBlocks) {
		t.Fatalf("blocks = %v, want %v", want.Blocks, dscBlocks)
	}
	for _, seed := range []int64{1, 42, -7, 1 << 40} {
		chip, err := GenerateByName("dsc", seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(chip.Cores, want.Cores) {
			t.Fatalf("seed %d: cores diverge from seed 0's", seed)
		}
		if !reflect.DeepEqual(chip.Memories, want.Memories) {
			t.Fatalf("seed %d: memories diverge from seed 0's", seed)
		}
		if !reflect.DeepEqual(chip.Resources, want.Resources) {
			t.Fatalf("seed %d: resources diverge from seed 0's: %+v", seed, chip.Resources)
		}
		if !reflect.DeepEqual(chip.Blocks, want.Blocks) {
			t.Fatalf("seed %d: blocks diverge from seed 0's", seed)
		}
		if len(chip.ExtraBIST) != 0 {
			t.Fatalf("seed %d: dsc chip has unexpected logic BIST", seed)
		}
	}
}

// TestDSCNetlistMatchesHandWritten: the generated dsc chip's SOC netlist
// must keep the bytes of the hand-written Fig. 3 netlist it replaced
// (whose SHA-256 is recorded here), so `-scenario dsc` runs the exact flow
// the golden files and the steacd smoke test pin down.
func TestDSCNetlistMatchesHandWritten(t *testing.T) {
	const want = "f5715530724bb3bfae19a9239b38862206e1c9c8f7b5b1a3ad661039a8776db0"
	chip, err := GenerateByName("dsc", 99)
	if err != nil {
		t.Fatal(err)
	}
	d, err := chip.BuildSOC()
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(v))); got != want {
		t.Fatalf("dsc netlist SHA-256 = %s, want %s", got, want)
	}
}

// TestDSCSelectorsMatchFlowChoices: the generic chip selectors must pick
// exactly what cmd/dscflow hard-codes for the DSC, so generalizing the
// xcheck driver does not change its dsc output.
func TestDSCSelectorsMatchFlowChoices(t *testing.T) {
	chip, err := GenerateByName("dsc", 0)
	if err != nil {
		t.Fatal(err)
	}
	pair, ok := chip.PairMemories()
	if !ok || pair[0].Name != "scr1" || pair[1].Name != "scr2" {
		t.Fatalf("PairMemories = %v, %v (want scr1, scr2)", pair, ok)
	}
	if wc := chip.WrapperCore(); wc == nil || wc.Name != "TV" {
		t.Fatalf("WrapperCore = %v (want TV)", wc)
	}
	small := chip.SmallestMemories(2)
	if len(small) != 2 || small[0].Name != "extfifo" || small[1].Name != "scr2" {
		t.Fatalf("SmallestMemories(2) = %v (want extfifo, scr2)", small)
	}
}

// TestGenerateDeterministic: same (spec, seed) must yield a DeepEqual chip
// on repeated runs and regardless of GOMAXPROCS; different seeds on a
// randomized scenario must differ somewhere.
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range builtins {
		chips := make([]*Chip, 3)
		for i := range chips {
			old := runtime.GOMAXPROCS([]int{1, runtime.NumCPU(), 2}[i%3])
			c, err := GenerateByName(name, 1234)
			runtime.GOMAXPROCS(old)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			chips[i] = c
		}
		if !reflect.DeepEqual(chips[0], chips[1]) || !reflect.DeepEqual(chips[1], chips[2]) {
			t.Fatalf("%s: repeated generation diverges", name)
		}
		// The emitted SOC netlist must be byte-identical too — the chip
		// inventory could DeepEqual while emission ordering drifted.
		ref := ""
		for i, c := range chips {
			d, err := c.BuildSOC()
			if err != nil {
				t.Fatalf("%s: BuildSOC: %v", name, err)
			}
			v, err := d.EmitVerilogString()
			if err != nil {
				t.Fatalf("%s: emit: %v", name, err)
			}
			if i == 0 {
				ref = v
			} else if v != ref {
				t.Fatalf("%s: netlist bytes differ between identical generations", name)
			}
		}
	}
	// A randomized scenario must actually vary with the seed.
	a, err := GenerateByName("hybrid-power", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateByName("hybrid-power", 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Cores, b.Cores) && reflect.DeepEqual(a.Memories, b.Memories) {
		t.Fatal("hybrid-power: seeds 1 and 2 sample identical chips")
	}
}

// TestP1500LBISTMerge: the p1500-lbist builtin inherits hybrid-power's
// structure through the merge path and gains LBIST sessions on most seeds.
func TestP1500LBISTMerge(t *testing.T) {
	spec, err := Resolve("p1500-lbist")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Resolve("hybrid-power")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Cores, base.Cores) || !reflect.DeepEqual(spec.Memories, base.Memories) {
		t.Fatal("derived spec does not inherit base cores/memories")
	}
	if spec.Resources.PowerBudget != base.Resources.PowerBudget {
		t.Fatal("derived spec does not inherit the power budget")
	}
	if spec.LogicBIST == nil || spec.LogicBIST.Fraction != 0.75 {
		t.Fatalf("LogicBIST not overlaid: %+v", spec.LogicBIST)
	}
	withLBIST := 0
	for seed := int64(0); seed < 8; seed++ {
		chip, err := GenerateByName("p1500-lbist", seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(chip.ExtraBIST) > 0 {
			withLBIST++
			for _, g := range chip.ExtraBIST {
				if g.Cycles <= 0 || g.Power <= 0 {
					t.Fatalf("seed %d: degenerate LBIST group %+v", seed, g)
				}
			}
		}
	}
	if withLBIST == 0 {
		t.Fatal("no seed in 0..7 produced an LBIST session at fraction 0.75")
	}
}

// TestMergeSemantics exercises replace / remove / append / block deletion /
// field-wise resource overlay on a synthetic pair.
func TestMergeSemantics(t *testing.T) {
	base := &Spec{
		Name: "m-base",
		Cores: []CoreSpec{
			{Name: "a", PIs: fixed(10)},
			{Name: "b", PIs: fixed(20)},
		},
		Memories: []MemorySpec{
			{Name: "m1", Words: fixed(64)},
			{Name: "m2", Words: fixed(128)},
		},
		Blocks:    map[string]float64{"glue": 100, "io": 200},
		Resources: &ResourceSpec{TestPins: 30, FuncPins: 111, MaxPower: 9},
		BIST:      &BISTSpec{Grouping: "per-memory", Backgrounds: 2},
	}
	child := &Spec{
		Name: "m-child",
		Cores: []CoreSpec{
			{Name: "b", PIs: fixed(21)}, // replace
			{Name: "c", PIs: fixed(30)}, // append
			{Name: "zz", Remove: true},  // removing an absent template: no-op
		},
		Memories: []MemorySpec{
			{Name: "m1", Remove: true}, // delete
		},
		Blocks:    map[string]float64{"io": 0, "pads": 50}, // delete io, add pads
		Resources: &ResourceSpec{TestPins: 44},             // only pins override
		BIST:      &BISTSpec{Algorithm: "March C-"},
	}
	got := merge(base, child)
	if got.Name != "m-child" {
		t.Fatalf("name = %q", got.Name)
	}
	wantCores := []CoreSpec{
		{Name: "a", PIs: fixed(10)},
		{Name: "b", PIs: fixed(21)},
		{Name: "c", PIs: fixed(30)},
	}
	if !reflect.DeepEqual(got.Cores, wantCores) {
		t.Fatalf("cores = %+v", got.Cores)
	}
	if len(got.Memories) != 1 || got.Memories[0].Name != "m2" {
		t.Fatalf("memories = %+v", got.Memories)
	}
	if !reflect.DeepEqual(got.Blocks, map[string]float64{"glue": 100, "pads": 50}) {
		t.Fatalf("blocks = %+v", got.Blocks)
	}
	r := got.Resources
	if r.TestPins != 44 || r.FuncPins != 111 || r.MaxPower != 9 {
		t.Fatalf("resources = %+v", r)
	}
	if got.BIST.Algorithm != "March C-" || got.BIST.Grouping != "per-memory" || got.BIST.Backgrounds != 2 {
		t.Fatalf("bist = %+v", got.BIST)
	}
	// Neither input mutated.
	if len(base.Cores) != 2 || len(base.Memories) != 2 || len(base.Blocks) != 2 {
		t.Fatal("merge mutated the base spec")
	}
}

// TestTypedErrors pins every failure class onto its sentinel.
func TestTypedErrors(t *testing.T) {
	// Base-chain cycle.  The registry is process-global, so a repeated run
	// (-count=2) finds the pair already registered.
	if _, ok := Lookup("t-cyc-a"); !ok {
		Register(&Spec{Name: "t-cyc-a", Base: "t-cyc-b", Cores: []CoreSpec{{Name: "x"}}})
		Register(&Spec{Name: "t-cyc-b", Base: "t-cyc-a", Cores: []CoreSpec{{Name: "x"}}})
	}

	cases := []struct {
		name string
		err  error
		want error
	}{
		{"unknown scenario", errOf(GenerateByName("no-such-chip", 1)), ErrUnknownScenario},
		{"base cycle", errOf(GenerateByName("t-cyc-a", 1)), ErrBaseCycle},
		{"unknown base of user spec", errOfSpec(LoadSpec([]byte(`{"name":"u","base":"nope","cores":[{"name":"x"}]}`))), ErrUnknownScenario},
		{"unknown JSON field", errOfSpec(LoadSpec([]byte(`{"name":"u","coresz":[]}`))), ErrBadSpec},
		{"trailing JSON", errOfSpec(LoadSpec([]byte(`{"name":"u","cores":[{"name":"x"}]} {}`))), ErrBadSpec},
		{"min > max", errOfSpec(LoadSpec([]byte(`{"name":"u","cores":[{"name":"x","pis":{"min":9,"max":3}}]}`))), ErrBadDistribution},
		{"choice out of range", errOfSpec(LoadSpec([]byte(`{"name":"u","cores":[{"name":"x","chains":{"choices":[99]}}]}`))), ErrBadDistribution},
		{"duplicate core template", errOfSpec(LoadSpec([]byte(`{"name":"u","cores":[{"name":"x"},{"name":"X"}]}`))), ErrDuplicateName},
		{"reserved block name", errOfSpec(LoadSpec([]byte(`{"name":"u","cores":[{"name":"x"}],"blocks":{"pll":10}}`))), ErrBadSpec},
		{"bad partitioner", errOfSpec(LoadSpec([]byte(`{"name":"u","cores":[{"name":"x"}],"resources":{"partitioner":"magic"}}`))), ErrBadSpec},
		{"bad march", errOfSpec(LoadSpec([]byte(`{"name":"u","cores":[{"name":"x"}],"bist":{"algorithm":"March ZZZ"}}`))), ErrBadSpec},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(tc.err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, tc.err, tc.want)
		}
	}

	// Instance-level duplicate: a count-2 template whose stamped names
	// collide with a sibling template.
	spec := &Spec{Name: "t-dup-inst", Cores: []CoreSpec{
		{Name: "pe0"},
		{Name: "pe", Count: fixed(2)}, // stamps pe0, pe1
	}}
	if _, err := Generate(spec, 1); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("instance collision: got %v, want ErrDuplicateName", err)
	}
	// Block-name collision with a core instance.
	spec = &Spec{Name: "t-dup-blk", Cores: []CoreSpec{{Name: "glue"}},
		Blocks: map[string]float64{"glue": 10}}
	if _, err := Generate(spec, 1); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("block collision: got %v, want ErrDuplicateName", err)
	}
}

func errOf(_ *Chip, err error) error     { return err }
func errOfSpec(_ *Spec, err error) error { return err }

// TestBuiltinsAllGenerate: every registered builtin must generate cleanly
// across a seed span, and the registry listing is stable and sorted.
func TestBuiltinsAllGenerate(t *testing.T) {
	names := Names()
	for _, w := range builtins {
		if _, ok := Lookup(w); !ok {
			t.Fatalf("builtin %q not registered (have %v)", w, names)
		}
	}
	for _, name := range builtins {
		for seed := int64(0); seed < 10; seed++ {
			chip, err := GenerateByName(name, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if len(chip.Cores) == 0 {
				t.Fatalf("%s seed %d: no cores", name, seed)
			}
			if _, err := chip.BuildSOC(); err != nil {
				t.Fatalf("%s seed %d: socgen: %v", name, seed, err)
			}
		}
	}
}

// scribble changes every value reachable from v: numbers and strings,
// booleans, slice elements, the entries of non-nil maps (plus one new key)
// and the targets of pointers.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			return
		}
		for _, k := range v.MapKeys() {
			v.SetMapIndex(k, reflect.ValueOf(v.MapIndex(k).Float()+1))
		}
		v.SetMapIndex(reflect.ValueOf("scribbled"), reflect.ValueOf(1.0))
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Bool:
		v.SetBool(!v.Bool())
	}
}

// TestResolvedSpecsAreOwned: a resolved spec, a spec derived from a
// builtin and a generated chip's blocks belong to the caller.  Rewriting
// every value in them must leave the registry — and so every later
// resolve and chip — exactly as before.
func TestResolvedSpecsAreOwned(t *testing.T) {
	snapshot := func(name string) string {
		t.Helper()
		s, err := Resolve(name)
		if err != nil {
			t.Fatalf("%s no longer resolves: %v", name, err)
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}
	for _, name := range builtins {
		want := snapshot(name)
		s, err := Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		scribble(reflect.ValueOf(s))
		derived, err := ResolveSpec(&Spec{Name: "derived", Base: name})
		if err != nil {
			t.Fatal(err)
		}
		scribble(reflect.ValueOf(derived))
		if got := snapshot(name); got != want {
			t.Fatalf("%s: mutating resolved specs changed the registry:\n got %s\nwant %s", name, got, want)
		}
	}

	chip, err := GenerateByName("dsc", 1)
	if err != nil {
		t.Fatal(err)
	}
	chip.Blocks["glue"] = 1
	again, err := GenerateByName("dsc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Blocks, dscBlocks) {
		t.Fatalf("mutating one chip's blocks reached the next chip: %v", again.Blocks)
	}
}
