package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{9, 0, 0, false},
		{19, 0, 0, false},
		{20, 50, 10, true},
		{39, 50, 19, true},
		{40, 75, 10, true},
		{100, 90, 10, true},
		{199, 90, 19, true},
		{200, 95, 10, true},
		{1000, 99, 10, true},
		{9999, 99, 99, true},
		{10000, 99.9, 10, true},
	}
	for _, c := range cases {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 20; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	if got := percentile(xs, 50); got != 10 {
		t.Errorf("p50 of 1..20 = %d, want 10", got)
	}
	if got := percentile(xs, 95); got != 19 {
		t.Errorf("p95 of 1..20 = %d, want 19", got)
	}
	if xs[0] != 20 {
		t.Errorf("percentile reordered its input")
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Name: "a", Parent: 1, Start: 10, End: 40},
		{ID: 3, Name: "b", Parent: 1, Start: 30, End: 60}, // overlaps a
		{ID: 4, Name: "leaf", Parent: 2, Start: 15, End: 20},
		{ID: 5, Name: "late", Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 6, Name: "op", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"op":   40 + 10, // first op: [10,60] and [90,100] covered; second: no children
		"a":    25,
		"b":    30,
		"leaf": 5,
		"late": 30,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("op", 7, 0)
	child := tr.begin("call", 7, root)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End || s[1].Start < s[0].Start {
		t.Fatalf("spans = %+v", s)
	}
}

func TestPlanSameSeedSameOps(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		warmA, timedA := buildPlan(w, 42, 80)
		warmB, timedB := buildPlan(w, 42, 80)
		a := planJSON(append(warmA, timedA...))
		if b := planJSON(append(warmB, timedB...)); !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different ops", name)
		}
		warmC, timedC := buildPlan(w, 43, 80)
		if bytes.Equal(a, planJSON(append(warmC, timedC...))) {
			t.Errorf("%s: seeds 42 and 43 gave identical ops", name)
		}
		if len(warmA) == 0 || len(timedA) != 80 {
			t.Errorf("%s: %d warm-up and %d timed ops, want some and 80", name, len(warmA), len(timedA))
		}
		for i, op := range append(warmA, timedA...) {
			if op.ID != i || op.Client != i%w.clients {
				t.Errorf("%s: op %d has id %d client %d", name, i, op.ID, op.Client)
				break
			}
		}
	}
}

func TestFlowSweepAddressesAreFresh(t *testing.T) {
	warm, timed := buildPlan(workloads[wFlowSweep], 7, 2000)
	seen := map[string]bool{}
	for _, op := range append(warm, timed...) {
		var req interface{} = op.Flow
		if op.Sched != nil {
			req = op.Sched
		}
		key, _ := json.Marshal(req)
		if seen[string(key)] {
			t.Fatalf("op %d repeats request %s", op.ID, key)
		}
		seen[string(key)] = true
	}
}

func TestKindsExactShares(t *testing.T) {
	ks := kinds(rand.New(rand.NewSource(1)), 100, jobShapes, jobShares)
	count := map[string]int{}
	for _, k := range ks {
		count[k]++
	}
	for i, name := range jobShapes {
		if want := int(jobShares[i] * 100); count[name] != want {
			t.Errorf("%s: %d of 100, want %d", name, count[name], want)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	rs := make([]result, 40)
	for i := range rs {
		rs[i].ok = true
	}
	e2e, err := endToEnd(phase{results: rs, wall: time.Second}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []struct{ Name, Unit string }, got []struct{ name, unit string }) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(want), len(got))
			return
		}
		for i := range want {
			if want[i].Name != got[i].name || want[i].Unit != got[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	var got []struct{ name, unit string }
	for _, m := range e2e {
		got = append(got, struct{ name, unit string }{m.name, m.unit})
	}
	check("end_to_end", spec.EndToEnd, got)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload end to end on a tiny fixture and op count,
// untraced and traced, and requires passing output checks, the metric
// sets of both modes, and one results digest for both passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	state := t.TempDir()
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			c := config{w: workloads[name], seed: 5, seconds: 1, trace: trace, smoke: true, root: state, state: state}
			if c.w.daemon {
				if _, err := ensureFixture(c.fixtureRoot(), c.seed, c.fixtureSize()); err != nil {
					t.Fatal(err)
				}
			}
			out, err := runWorkload(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.correct || out.attempted != c.opCount() || out.digest == "" {
				t.Errorf("%s trace=%v: correct=%v attempted=%d digest=%q: %v", name, trace, out.correct, out.attempted, out.digest, out.checkErr)
			}
			want := 7
			if trace {
				want = len(perLayer)
			}
			if len(out.metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.metrics), want)
			}
		}
	}
}

func TestSignoffPlanLargerThanUniverse(t *testing.T) {
	_, timed := buildPlan(workloads[wSignoff], 1, 4*signoffUniverse)
	if len(timed) != 4*signoffUniverse {
		t.Fatalf("%d ops, want %d", len(timed), 4*signoffUniverse)
	}
}
