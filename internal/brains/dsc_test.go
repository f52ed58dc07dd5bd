// BRAINS on the paper's chip, built from the dsc scenario (which imports
// this package, hence the external test package).
package brains_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"steac/internal/bist"
	"steac/internal/brains"
	"steac/internal/scenario"
)

func compileDSC(t *testing.T) *brains.Result {
	t.Helper()
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := brains.CompileContext(context.Background(), chip.Memories, chip.BIST)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sha(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }

// The DSC chip's BIST design is pinned byte for byte (the SHA-256 of its
// Verilog and of the BRAINS report) together with its area report; all
// were recorded before the generator built each distinct block once.
func TestDSCBISTGolden(t *testing.T) {
	res := compileDSC(t)
	v, err := res.Design.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	const wantVerilog = "9b296e9ba04011d64baaf430b44dbdd3de5102858f40816bea385349790ca065"
	if got := sha(v); got != wantVerilog {
		t.Errorf("DSC BIST Verilog SHA-256 = %s, want %s", got, wantVerilog)
	}
	const wantReport = "5f6608d4ef8f76f0f2e5192301ea1c1c36871026cbc30b989467e701ccd735eb"
	if got := sha(brains.Report(res)); got != wantReport {
		t.Errorf("DSC BRAINS report SHA-256 = %s, want %s", got, wantReport)
	}
	want := bist.AreaReport{Controller: 897, Sequencers: 3564, TPGs: 9286}
	if res.Area != want {
		t.Errorf("DSC area = %#v, want %#v", res.Area, want)
	}
}

// The DSC's 22 memories come in 13 shapes and all run March C-, so its
// 22 TPG modules are backed by 13 generated bodies and its 22 sequencer
// modules by one.
func TestDSCBuildsEachBlockOnce(t *testing.T) {
	res := compileDSC(t)
	for _, c := range []struct {
		prefix        string
		names, bodies int
	}{{"membist_tpg_", 22, 13}, {"membist_seq_", 22, 1}} {
		names, bodies := 0, 0
		for _, name := range res.Design.ModuleNames() {
			if !strings.HasPrefix(name, c.prefix) {
				continue
			}
			names++
			if res.Design.Module(name).AliasOf() == "" {
				bodies++
			}
		}
		if names != c.names || bodies != c.bodies {
			t.Errorf("%s*: %d modules backed by %d bodies, want %d backed by %d",
				c.prefix, names, bodies, c.names, c.bodies)
		}
	}
}

// A compile keeps its generate-once bookkeeping to itself: two compiles
// of the same memories run at once (under -race in CI) emit identical
// Verilog.
func TestConcurrentCompilesAgree(t *testing.T) {
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		t.Fatal(err)
	}
	var out [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := brains.CompileContext(context.Background(), chip.Memories, chip.BIST)
			if err != nil {
				errs[i] = err
				return
			}
			var sb strings.Builder
			errs[i] = res.Design.EmitVerilog(&sb)
			out[i] = sb.String()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if out[0] != out[1] {
		t.Fatal("concurrent compiles of the same memories emit different Verilog")
	}
}

// BenchmarkCompileDSC measures one BRAINS compile of the DSC chip's 22
// memories (per-memory grouping, March C-): planning, netlist generation,
// area and lint.
func BenchmarkCompileDSC(b *testing.B) {
	chip, err := scenario.GenerateByName("dsc", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := brains.CompileContext(context.Background(), chip.Memories, chip.BIST); err != nil {
			b.Fatal(err)
		}
	}
}
