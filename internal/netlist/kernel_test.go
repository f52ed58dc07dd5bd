package netlist

import (
	"slices"
	"testing"
)

// CheckKernelLayout is checkLayout for the external tests, which build the
// generated benches this package cannot import.
var CheckKernelLayout = checkLayout

// checkLayout asserts the compiled program's kernel layout: the runs tile
// the kernel and each but the merged short ones holds one opcode; the
// levels put the stored bits first and every combinational entry after
// every writer of the nets it reads; kpos and cpos round-trip; each
// clock's capture runs are a permutation of its gate-order list; and drv
// names the entry a sweep writes last.
func checkLayout(t testing.TB, cs *CompiledSim) {
	t.Helper()
	p := cs.p
	checkRuns := func(what string, runs []kRun, lo int32, op func(i int32) csOp) int32 {
		t.Helper()
		for _, r := range runs {
			if r.lo != lo || r.hi <= r.lo {
				t.Fatalf("%s: run [%d,%d) does not continue at %d", what, r.lo, r.hi, lo)
			}
			for i := r.lo; i < r.hi && r.op != opMixed; i++ {
				if op(i) != r.op {
					t.Fatalf("%s: entry %d has opcode %d in a run of %d", what, i, op(i), r.op)
				}
			}
			lo = r.hi
		}
		return lo
	}
	if end := checkRuns("kernel", p.runs, 0, func(i int32) csOp { return p.kern[i].op }); int(end) != len(p.kern) {
		t.Fatalf("kernel runs end at %d of %d entries", end, len(p.kern))
	}

	// kpos is a permutation, and each gate's entry is its compiled entry.
	gateAt := make([]int32, len(p.kern))
	for i := range gateAt {
		gateAt[i] = -1
	}
	for gi := range p.gates {
		pos := p.kpos[gi]
		if gateAt[pos] >= 0 {
			t.Fatalf("gates %d and %d share kernel entry %d", gateAt[pos], gi, pos)
		}
		gateAt[pos] = int32(gi)
		if got, want := p.kern[pos], p.kernelEntry(int32(gi), &p.gates[gi]); got != want {
			t.Fatalf("gate %s: entry %d is %+v, compiles to %+v", p.gates[gi].name, pos, got, want)
		}
	}

	// Levels: the stored bits first, then every combinational entry after
	// every writer of each net it reads.
	level := make([]int, len(p.kern))
	if p.lvlOff[0] != 0 || int(p.lvlOff[len(p.lvlOff)-1]) != len(p.kern) || int(p.lvlOff[1]) != len(p.seqs) {
		t.Fatalf("level offsets %v: want 0, %d stored bits, ..., %d", p.lvlOff, len(p.seqs), len(p.kern))
	}
	for l := 0; l+1 < len(p.lvlOff); l++ {
		for i := p.lvlOff[l]; i < p.lvlOff[l+1]; i++ {
			level[i] = l
		}
	}
	writers := make([][]int32, len(p.names)) // net -> kernel entries writing it, ascending
	for pos, gi := range gateAt {
		g := &p.gates[gi]
		if g.seq != (level[pos] == 0) {
			t.Fatalf("gate %s (seq %v) sits on level %d", g.name, g.seq, level[pos])
		}
		for oi, n := range g.out {
			if n >= 0 && (!g.seq || oi == g.qSlot || oi == g.qnSlot) {
				writers[n] = append(writers[n], int32(pos))
			}
		}
	}
	for pos, gi := range gateAt {
		if g := &p.gates[gi]; !g.seq {
			for _, n := range g.in {
				for _, w := range writers[max(n, 0)] {
					if n >= 0 && level[w] >= level[pos] {
						t.Fatalf("gate %s on level %d reads %s, written on level %d", g.name, level[pos], p.names[n], level[w])
					}
				}
			}
		}
	}
	for n, ws := range writers {
		want := int32(-1)
		if len(ws) > 0 {
			want = ws[len(ws)-1]
		}
		if p.drv[n] != want {
			t.Fatalf("net %s: drv %d, last writer %d", p.names[n], p.drv[n], want)
		}
	}

	// Capture lists.
	var byClock = make([][]int32, len(p.names)) // gate-order list per clock net
	for _, gi := range p.seqs {
		if g := &p.gates[gi]; len(g.in) > 0 && g.in[g.clkSlot] >= 0 {
			byClock[g.in[g.clkSlot]] = append(byClock[g.in[g.clkSlot]], gi)
		}
	}
	lo := int32(0)
	for n, want := range byClock {
		runs := p.capRuns[p.capRunOff[n]:p.capRunOff[n+1]]
		hi := checkRuns("capture list of "+p.names[n], runs, lo, func(i int32) csOp { return p.capts[i].op })
		var got []int32
		for i := lo; i < hi; i++ {
			e := p.capts[i]
			if p.cpos[e.g] != i || e != p.captureEntry(e.g, &p.gates[e.g]) {
				t.Fatalf("capture entry %d (gate %s): cpos %d, entry %+v", i, p.gates[e.g].name, p.cpos[e.g], e)
			}
			got = append(got, e.g)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("capture list of %s holds gates %v, want %v", p.names[n], got, want)
		}
		lo = hi
	}
	if int(lo) != len(p.capts) {
		t.Fatalf("capture runs cover %d of %d entries", lo, len(p.capts))
	}
	for gi := range p.gates {
		if p.cpos[gi] >= 0 && p.capts[p.cpos[gi]].g != int32(gi) {
			t.Fatalf("gate %s: cpos %d names gate %d", p.gates[gi].name, p.cpos[gi], p.capts[p.cpos[gi]].g)
		}
	}
}

// The random netlists of the compiled-vs-reference property.
func TestKernelLayoutRandomNetlists(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		_, d, _ := compiledPropertyDesign(seed)
		cs, err := NewCompiledSim(d, "dut")
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, cs)
	}
}

// runKinds counts a program's homogeneous and merged (opMixed) runs among
// the kernel's combinational runs and among the capture runs.
func runKinds(p *csProg) (comb, mixed, capt, captMixed int) {
	for _, r := range p.runs {
		switch r.op {
		case opMixed:
			mixed++
		case opState:
		default:
			comb++
		}
	}
	for _, r := range p.capRuns {
		if r.op == opMixed {
			captMixed++
		} else {
			capt++
		}
	}
	return comb, mixed, capt, captMixed
}

// The fuzzers' seed corpus must reach both sweep paths — a homogeneous
// combinational run and a merged short run — and a homogeneous capture
// run, or the fuzzers would only exercise the per-entry dispatch.
func TestFuzzSeedsReachBothRunKinds(t *testing.T) {
	var comb, mixed, capt int
	for _, seed := range []int64{1, 42, 12345} {
		_, d, _ := compiledPropertyDesign(seed)
		cs, err := NewCompiledSim(d, "dut")
		if err != nil {
			t.Fatal(err)
		}
		c, m, k, _ := runKinds(cs.p)
		comb, mixed, capt = comb+c, mixed+m, capt+k
	}
	if comb == 0 || mixed == 0 || capt == 0 {
		t.Errorf("seed corpus: %d homogeneous and %d merged kernel runs, %d homogeneous capture runs; want each > 0",
			comb, mixed, capt)
	}
}
