package xcheck

import (
	"steac/internal/march"
	"steac/internal/memory"
)

// bitsFor mirrors the generators' counter-width rule: enough bits to hold
// n-1, at least one.
func bitsFor(n int) int {
	b := 0
	for v := n - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// refTPG is the behavioural reference of one generated TPG plus its RAM: an
// address counter that wraps at the power-of-two boundary (exactly like the
// generated up-counter — this is where the reference deliberately differs
// from bist.Engine, whose TPGs idle instead), a sticky fail flag and the
// word array the harness-emulated RAM holds.
type refTPG struct {
	cfg  memory.Config
	cnt  int
	fail bool
	mem  []uint64
}

// refPins is one cycle's worth of reference pin values for a verify bench.
type refPins struct {
	cmdr, cmdd, dir, adv bool
	elemdone, done, fail bool
	addr                 []int
	d                    []uint64
	we                   []bool
	failI                []bool
}

// refBench emulates the complete BuildVerifyBench stack — sequencer, per
// memory TPG, enable gating and the RAM macros — against the March
// definition.  All state updates follow rising-edge semantics: comb() reads
// the pre-edge state, tick() commits the next state.
type refBench struct {
	alg    march.Algorithm
	ob, eb int
	ocnt   int
	ecnt   int
	tpgs   []*refTPG
	pins   refPins // only the per-memory slices are set: comb's buffers
}

func newRefBench(alg march.Algorithm, mems []memory.Config) *refBench {
	maxOps := 0
	for _, e := range alg.Elements {
		if len(e.Ops) > maxOps {
			maxOps = len(e.Ops)
		}
	}
	r := &refBench{alg: alg, ob: bitsFor(maxOps), eb: bitsFor(len(alg.Elements) + 1)}
	for _, cfg := range mems {
		r.tpgs = append(r.tpgs, &refTPG{cfg: cfg, mem: make([]uint64, cfg.Words)})
	}
	r.pins = refPins{
		addr:  make([]int, len(mems)),
		d:     make([]uint64, len(mems)),
		we:    make([]bool, len(mems)),
		failI: make([]bool, len(mems)),
	}
	return r
}

// expand applies the TPG data expansion: solid background repeats the March
// value, the checkerboard background inverts the odd bits.
func expand(cmdd, bgsel bool, bits int) uint64 {
	var w uint64
	for b := 0; b < bits; b++ {
		v := cmdd
		if bgsel && b%2 == 1 {
			v = !v
		}
		if v {
			w |= 1 << uint(b)
		}
	}
	return w
}

// comb computes this cycle's reference pins.  The returned per-memory
// slices are the bench's own buffers: valid until the next comb or tick.
func (r *refBench) comb(en, bgsel bool) refPins {
	p := r.pins
	nElem := len(r.alg.Elements)
	p.done = r.ecnt == nElem
	run := !p.done
	lastop := false
	if !p.done {
		e := r.alg.Elements[r.ecnt]
		if r.ocnt < len(e.Ops) {
			op := e.Ops[r.ocnt]
			p.cmdr = op.Read
			p.cmdd = op.Value == 1
			lastop = r.ocnt == len(e.Ops)-1
		}
		p.dir = e.Order == march.Down
	}
	p.adv = lastop && en && run
	tpen := en && run
	p.elemdone = true
	p.fail = false
	for i, t := range r.tpgs {
		addr := t.cnt
		if p.dir {
			addr = t.cfg.Words - 1 - t.cnt
		}
		p.addr[i] = addr
		p.d[i] = expand(p.cmdd, bgsel, t.cfg.Bits)
		p.we[i] = !p.cmdr && tpen
		p.failI[i] = t.fail
		if t.cnt != t.cfg.Words-1 {
			p.elemdone = false
		}
		if t.fail {
			p.fail = true
		}
	}
	return p
}

// tick advances the reference one clock edge (RAM write-back included).
func (r *refBench) tick(en, rst, bgsel bool) {
	p := r.comb(en, bgsel)
	tpen := en && !p.done
	for i, t := range r.tpgs {
		q := t.mem[p.addr[i]]
		qmis := q != p.d[i] && p.cmdr && tpen
		if p.we[i] {
			t.mem[p.addr[i]] = p.d[i]
		}
		t.fail = (qmis || t.fail) && !rst
		switch {
		case rst:
			t.cnt = 0
		case p.adv:
			t.cnt = (t.cnt + 1) % t.cfg.Words
		}
	}
	elemadv := p.adv && p.elemdone
	switch {
	case rst || p.adv:
		r.ocnt = 0
	case en:
		r.ocnt = (r.ocnt + 1) % (1 << uint(r.ob))
	}
	switch {
	case rst:
		r.ecnt = 0
	case elemadv:
		r.ecnt = (r.ecnt + 1) % (1 << uint(r.eb))
	}
}

// refController emulates the Fig. 2 shared BIST controller: the run flag,
// the group counter stepping through GO, the sticky per-group fail flags,
// and the MBO/MRD/MSO tester pins.
type refController struct {
	n     int
	gb    int
	run   bool
	gcnt  int
	fails []bool
	gos   []bool // comb's GO buffer, reused every cycle
}

func newRefController(nGroups int) *refController {
	return &refController{n: nGroups, gb: bitsFor(nGroups + 1),
		fails: make([]bool, nGroups), gos: make([]bool, nGroups)}
}

// refCtlPins is one cycle of reference controller outputs.
type refCtlPins struct {
	gos           []bool
	mbo, mrd, mso bool
}

// comb computes this cycle's controller outputs; p.gos is the
// controller's own buffer, valid until the next comb or tick.
func (r *refController) comb(msi bool) refCtlPins {
	p := refCtlPins{gos: r.gos}
	for i := range p.gos {
		p.gos[i] = r.gcnt == i && r.run
	}
	p.mbo = r.gcnt == r.n
	p.mrd = true
	for _, f := range r.fails {
		if f {
			p.mrd = false
		}
	}
	// MSO: the fail-flag mux tree selects on the low bitsFor(n) counter
	// bits and pads missing leaves with the last flag.
	sel := r.gcnt % (1 << uint(bitsFor(r.n)))
	if sel >= r.n {
		sel = r.n - 1
	}
	p.mso = r.fails[sel] && msi
	return p
}

func (r *refController) tick(mbs, mbr, msi bool, gdone, gfail []bool) {
	p := r.comb(msi)
	gadv := false
	for i := 0; i < r.n; i++ {
		if p.gos[i] && gdone[i] {
			gadv = true
		}
		capture := gfail[i] && p.gos[i]
		r.fails[i] = (capture || r.fails[i]) && !mbr
	}
	r.run = (mbs || r.run) && !p.mbo && !mbr
	switch {
	case mbr:
		r.gcnt = 0
	case gadv:
		r.gcnt = (r.gcnt + 1) % (1 << uint(r.gb))
	}
}
