package socgen_test

import (
	"testing"

	"steac/internal/scenario"
	"steac/internal/socgen"
	"steac/internal/testinfo"
)

// chipCores draws a generated chip's cores from the scenario registry.
func chipCores(t *testing.T, name string, seed int64) []*testinfo.Core {
	t.Helper()
	chip, err := scenario.GenerateByName(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return chip.Cores
}

func TestBuildGeneratedSOC(t *testing.T) {
	cores := chipCores(t, "hybrid-power", 3)
	d, err := socgen.Build(cores, socgen.Options{Name: "synth", Blocks: map[string]float64{
		"glue": 9000, "cpu": 40000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Top != "soc" {
		t.Fatalf("top = %s", d.Top)
	}
	top := d.TopModule()
	for _, c := range cores {
		if top.Instance("u_"+c.Name) == nil {
			t.Fatalf("core %s not instantiated", c.Name)
		}
	}
	if top.Instance("u_cpu") == nil || top.Instance("u_glue") == nil || top.Instance("u_pll") == nil {
		t.Fatal("blocks missing")
	}
	if issues := d.Lint(); len(issues) != 0 {
		t.Fatalf("lint: %v", issues)
	}
	// Every clock pin got a distinct PLL output.
	nClocks := 0
	for _, c := range cores {
		nClocks += len(c.Clocks)
	}
	pll := d.Module("pll")
	if pll.Port("ck").Width != nClocks {
		t.Fatalf("pll outputs = %d, want %d", pll.Port("ck").Width, nClocks)
	}
}

func TestBuildRejects(t *testing.T) {
	if _, err := socgen.Build(nil, socgen.Options{}); err == nil {
		t.Fatal("empty core set accepted")
	}
	bad := []*testinfo.Core{{Name: "x"}} // no clock
	if _, err := socgen.Build(bad, socgen.Options{}); err == nil {
		t.Fatal("invalid core accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	cores := chipCores(t, "p1500-lbist", 5)
	opts := socgen.Options{Blocks: map[string]float64{"a": 1, "b": 2, "c": 3}}
	d1, err := socgen.Build(cores, opts)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := socgen.Build(cores, opts)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := d1.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := d2.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("generated SOC is not deterministic")
	}
}
