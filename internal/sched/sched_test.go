package sched

import (
	"context"
	"fmt"
	"testing"

	"steac/internal/testinfo"
	"steac/internal/wrapper"
)

func TestFuncCycles(t *testing.T) {
	for _, tc := range []struct {
		patterns, need, granted, want int
	}{
		{100, 65, 65, 100},
		{100, 65, 33, 200},
		{100, 269, 96, 300},
		{0, 10, 1, 0},
		{7, 0, 0, 7},
	} {
		got, err := FuncCycles(tc.patterns, tc.need, tc.granted)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("FuncCycles(%d,%d,%d) = %d, want %d",
				tc.patterns, tc.need, tc.granted, got, tc.want)
		}
	}
	if _, err := FuncCycles(5, 10, 0); err == nil {
		t.Fatal("zero grant accepted")
	}
}

func TestGreedyPartitionFallback(t *testing.T) {
	// 12 small cores exercise the >10-job greedy path.
	var cores []*testinfo.Core
	for i := 0; i < 12; i++ {
		cores = append(cores, &testinfo.Core{
			Name:        fmt.Sprintf("C%d", i),
			Clocks:      []string{"ck"},
			ScanEnables: []string{"se"},
			PIs:         4, POs: 4,
			ScanChains: []testinfo.ScanChain{{Name: "c", Length: 50 + i*10, In: "si", Out: "so", Clock: "ck"}},
			Patterns:   []testinfo.PatternSet{{Name: "s", Type: testinfo.Scan, Count: 10, Seed: 1}},
		})
	}
	tests, err := BuildTests(cores, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := SessionBasedContext(context.Background(), tests, Resources{TestPins: 30, FuncPins: 32, Partitioner: wrapper.LPT})
	if err != nil {
		t.Fatal(err)
	}
	placed := 0
	for _, sess := range s.Sessions {
		placed += len(sess.Placements)
	}
	if placed != 12 {
		t.Fatalf("placed %d of 12", placed)
	}
}

func TestWaterfill(t *testing.T) {
	g, err := waterfill([]int{65, 269}, 96)
	if err != nil {
		t.Fatal(err)
	}
	if g[0]+g[1] > 96 || g[0] < 1 || g[1] < 1 {
		t.Fatalf("grants = %v", g)
	}
	if g[0] != 48 || g[1] != 48 {
		t.Fatalf("grants = %v, want even split 48/48", g)
	}
	g, err = waterfill([]int{10, 200}, 96)
	if err != nil {
		t.Fatal(err)
	}
	if g[0] != 10 || g[1] != 86 {
		t.Fatalf("grants = %v, want 10/86", g)
	}
	if _, err := waterfill([]int{5, 5, 5}, 2); err == nil {
		t.Fatal("starved waterfill accepted")
	}
}

func TestTimeMS(t *testing.T) {
	s := &Schedule{TotalCycles: 5_000_000}
	if got := s.TimeMS(50); got != 100 {
		t.Fatalf("TimeMS(50) = %v, want 100", got)
	}
	if got := s.TimeMS(0); got != 100 { // default 50 MHz
		t.Fatalf("TimeMS(0) = %v", got)
	}
}
