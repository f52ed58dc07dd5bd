package netlist

import "math/bits"

// Per-clock capture lists and the selective-trace fanout.  Both are built
// once per compiled program (csProg) from the pristine gate headers and are
// shared, read-only, by every clone and packed sim of it.

// capEntry is one sequential gate of a clock net's capture list: the gate's
// next state is op over its non-clock input nets in pin order — a = D,
// b = SI and c = SE for an SDFF, b = R for a DFFR — with unconnected pins
// reading $const0.  A custom cell evaluates through its header
// (evalSeqNext), and opHold marks a gate whose clock pin a fault has
// rewired: it no longer sees its clock's edges.
type capEntry struct {
	op      csOp
	g       int32
	a, b, c int32
}

// captureEntry compiles gate gi's capture entry from header g (the pristine
// header at build time, a faulted copy after CompiledSim.Inject).
func (p *csProg) captureEntry(gi int32, g *cGate) capEntry {
	e := capEntry{op: g.op, g: gi, a: p.const0, b: p.const0, c: p.const0}
	if g.in[g.clkSlot] != p.gates[gi].in[g.clkSlot] {
		e.op = opHold
		return e
	}
	pins := [...]*int32{&e.a, &e.b, &e.c}
	j := 0
	for si, n := range g.in {
		if si == g.clkSlot {
			continue
		}
		if j < len(pins) && n >= 0 {
			*pins[j] = n
		}
		j++
	}
	return e
}

// buildCSR groups int32 values by key in emission order: the values of key
// k are vals[off[k]:off[k+1]].  emit is called twice (count, then fill)
// and must emit the same pairs both times.
func buildCSR(nKeys int, emit func(add func(key, val int32))) (off, vals []int32) {
	off = make([]int32, nKeys+1)
	emit(func(key, _ int32) { off[key+1]++ })
	for k := 0; k < nKeys; k++ {
		off[k+1] += off[k]
	}
	vals = make([]int32, off[nKeys])
	fill := append([]int32(nil), off[:nKeys]...)
	emit(func(key, val int32) {
		vals[fill[key]] = val
		fill[key]++
	})
	return off, vals
}

// buildFanout fills the trace fanout and the capture lists from the
// pristine headers, once the kernel exists; order lists the gates in
// kernel order.
func (p *csProg) buildFanout(nNets int, order []int32) {
	gates := p.gates
	// Readers: the combinational kernel entries reading each net.
	// Sequential gates read their inputs only at capture, never in the
	// kernel.
	p.rdOff, p.rd = buildCSR(nNets, func(add func(key, val int32)) {
		for _, gi := range p.comb {
			for _, n := range gates[gi].in {
				if n >= 0 {
					add(n, p.kpos[gi])
				}
			}
		}
	})
	// Driver: the kernel entry writing each net.  Kernel entries are
	// visited in order, so a (lint-illegal) multi-driven net keeps its last
	// writer, whose value a sweep leaves on the net.
	p.drv = make([]int32, nNets)
	for i := range p.drv {
		p.drv[i] = -1
	}
	for pos, gi := range order {
		g := &gates[gi]
		for oi, n := range g.out {
			if n >= 0 && (!g.seq || oi == g.qSlot || oi == g.qnSlot) {
				p.drv[n] = int32(pos)
			}
		}
	}

	// Capture lists: the sequential gates clocked by each net, grouped by
	// opcode into runs like the kernel.
	seqOff, seqOf := buildCSR(nNets, func(add func(key, val int32)) {
		for _, gi := range p.seqs {
			if g := &gates[gi]; len(g.in) > 0 && g.in[g.clkSlot] >= 0 {
				add(g.in[g.clkSlot], gi)
			}
		}
	})
	p.capRunOff = make([]int32, nNets+1)
	p.capts = make([]capEntry, 0, len(seqOf))
	var list []capEntry
	var runs []kRun // one clock's runs: never joined to the previous clock's
	for n := 0; n < nNets; n++ {
		list = list[:0]
		for _, gi := range seqOf[seqOff[n]:seqOff[n+1]] {
			list = append(list, p.captureEntry(gi, &gates[gi]))
		}
		p.capts, runs = groupRuns(p.capts, runs[:0], list, func(e capEntry) csOp { return e.op })
		p.capRuns = append(p.capRuns, runs...)
		p.capRunOff[n+1] = int32(len(p.capRuns))
	}
	p.cpos = make([]int32, len(gates))
	for i := range p.cpos {
		p.cpos[i] = -1
	}
	for i, e := range p.capts {
		p.cpos[e.g] = int32(i)
	}
}

// traceMarks is one sim's selective-trace work set: a bitset over kernel
// positions.  A value-changing SetID marks its net's driver and readers; the
// trace pops positions in ascending (topological) order and marks the
// readers of every net an entry changes.  lo is the lowest word that may
// hold a mark.
type traceMarks struct {
	bits []uint64
	lo   int
}

func newTraceMarks(kernLen int) traceMarks {
	n := (kernLen + 63) / 64
	return traceMarks{bits: make([]uint64, n), lo: n}
}

func (m *traceMarks) add(i int32) {
	w := int(i >> 6)
	m.bits[w] |= 1 << uint(i&63)
	if w < m.lo {
		m.lo = w
	}
}

// net marks the driver and every reader of net n changed from outside.  The
// driver must run too: a sweep overwrites an externally driven gate output
// with the gate's own value, so the trace must as well.
func (m *traceMarks) net(p *csProg, n int32) {
	if d := p.drv[n]; d >= 0 {
		m.add(d)
	}
	for _, r := range p.rd[p.rdOff[n]:p.rdOff[n+1]] {
		m.add(r)
	}
}

// readersAfter marks the readers of net n that kernel entry i just changed.
// In a single-driven design every reader follows its driver; skipping
// earlier positions keeps the scan forward-only on any design.
func (m *traceMarks) readersAfter(p *csProg, n int32, i int) {
	for _, r := range p.rd[p.rdOff[n]:p.rdOff[n+1]] {
		if int(r) > i {
			m.add(r)
		}
	}
}

// next pops the lowest marked position, or returns -1 when none is left.
func (m *traceMarks) next() int {
	for ; m.lo < len(m.bits); m.lo++ {
		if w := m.bits[m.lo]; w != 0 {
			m.bits[m.lo] = w & (w - 1)
			return m.lo<<6 | bits.TrailingZeros64(w)
		}
	}
	return -1
}

// reset drops every mark (a sweep supersedes them).
func (m *traceMarks) reset() {
	if m.lo < len(m.bits) {
		clear(m.bits[m.lo:])
		m.lo = len(m.bits)
	}
}
