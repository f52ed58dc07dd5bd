package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"steac/internal/brains"
	"steac/internal/core"
	"steac/internal/memory"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// dscFlowInput builds the flow input main builds for the default
// `-scenario dsc -workers 1`: the paper's chip, one worker everywhere so
// every counter is deterministic.
func dscFlowInput(verify bool) (core.FlowInput, error) {
	chip, err := loadChip("dsc", 0)
	if err != nil {
		return core.FlowInput{}, err
	}
	in, err := chip.FlowInput(verify)
	in.BISTOptions.Workers = 1
	in.Resources.Workers = 1
	return in, err
}

var flowOnce = sync.OnceValues(func() (*core.FlowResult, error) {
	in, err := dscFlowInput(false)
	if err != nil {
		return nil, err
	}
	return core.RunFlowContext(context.Background(), in)
})

// checkGolden compares got against testdata/<name>.golden byte-for-byte;
// with -update it rewrites the file instead.  The goldens pin the printed
// report sections: any change to a published number or to formatting must
// show up as a reviewed diff, not drift silently.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/dscflow -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from golden file (run `go test ./cmd/dscflow -update` if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

func TestTable1Golden(t *testing.T) {
	res, err := flowOnce()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", core.Table1(res.Cores))
}

func TestBISTPlanGolden(t *testing.T) {
	res, err := flowOnce()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bistplan", brains.Report(res.Brains))
}

func TestMarchEfficiencyGolden(t *testing.T) {
	rows, err := brains.EvaluateContext(context.Background(), memory.Config{Name: "eval", Words: 16, Bits: 4}, nil, brains.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "marcheff", brains.EvaluationTable(rows))
}

// TestScenariosGolden pins the -scenarios registry listing: adding or
// reshaping a builtin scenario must show up as a reviewed golden diff.
func TestScenariosGolden(t *testing.T) {
	checkGolden(t, "scenarios", scenarioList())
}
