package netlist

import (
	"fmt"

	"steac/internal/obs"
)

// Observability for the packed engine mirrors the compiled one: ticks are
// the finest grain counted, Settle stays uninstrumented.  Packed tick and
// sim counts are deterministic functions of the campaign fault lists, so
// they are worker-count-invariant like every other counter.
var (
	obsPackedSims  = obs.GetCounter("netlist.packed_sims")
	obsPackedTicks = obs.GetCounter("netlist.packed_ticks")
)

// Lanes is the number of independent circuit copies a PackedSim carries:
// one per bit of a machine word.
const Lanes = 64

// PackedSim is the word-packed parallel-fault variant of CompiledSim: the
// same compiled program and flat settle kernel (see kOp), but every net
// holds a uint64 where bit i carries lane i's value, so one pass through
// the kernel simulates 64 circuit copies.  The boolean opcodes become
// branch-free bitwise ops (NAND2 is ^(a & b)), sequential state is
// word-wide, and stuck-at injection is a per-pin AND/OR lane mask applied
// where the pin reads (input faults) or where the driver writes (output
// faults) — the packed equivalent of CompiledSim's rewiring to the
// reserved constant nets.  A gate carrying a lane force has its kernel
// entry swapped for a slow entry that evaluates through the gate header
// and the masks; every other gate stays on the flat kernel.  Settle
// follows CompiledSim's unsettle rules, including the selective trace after
// SetID/SetWordID-only changes, and a clock-pure Tick captures through the
// shared capture lists.
//
// Lane semantics are exactly CompiledSim's per lane: an unfaulted lane
// computes the same trajectory as a fault-free CompiledSim, and a lane with
// one injected fault computes the same trajectory as a CompiledSim clone
// with that Inject applied.  TestPackedSimMatchesScalar locks that in
// bit-for-bit.  By the xcheck campaign convention, lane Lanes-1 is reserved
// for the fault-free machine so detection is (word ^ golden) != 0.
type PackedSim struct {
	p     *csProg
	gates []cGate // the compiled program's pristine headers, read-only
	// kern is p.kern until the first lane force on a library or sequential
	// gate, then a private copy holding that gate's slow entry (ownKern).
	kern    []kOp
	ownKern bool
	vals    []uint64 // net lane-words, indexed by net id
	state   []uint64 // per-gate stored lanes (sequential gates only)
	next    []uint64
	pre     []uint64 // scratch: pre-edge clock lanes in the generic Tick path
	prev    []uint64 // scratch: a slow entry's output words before a traced evaluation
	settled bool     // vals is settled for the current inputs, state and forces
	tracing bool     // only value-changing SetWordIDs unsettled it (see CompiledSim)
	marks   traceMarks

	// Force lookup is per gate: a 63-lane batch injects dozens of sites, and
	// every masked pin access during eval must find its (at most few) forces
	// without scanning the whole batch's list.
	gforces [][]laneForce // per gate: merged entries for its faulted pins
	fgates  []int32       // gates with at least one force, for clear/reset

	scratch map[string]bool // per-lane input map for custom (non-library) cells
	clkIDs  map[string]int
	coutW   []uint64 // scratch: custom comb output lane-words
	coutM   []uint64 // scratch: lanes where Eval produced each output
}

// laneForce is the packed counterpart of cForce: instead of rewiring a pin,
// the affected lanes are masked wherever the pin's word is read (inputs) or
// driven (outputs).  mask holds every faulted lane on the pin, set the
// subset stuck at 1; the applied value is (word &^ mask) | set.  Entries
// live in the owning gate's gforces list.
type laneForce struct {
	slot int32
	out  bool
	mask uint64
	set  uint64
}

// NewPackedSim builds a packed simulator over base's compiled program with
// every lane at the all-zero reset state.  The base must be fault-free
// (campaigns inject per lane via InjectLane); the packed machine reads the
// program's pristine gate headers, so later Inject calls on the base cannot
// alias it, and the kernel is the compiled program's until the first lane
// force.
func NewPackedSim(base *CompiledSim) (*PackedSim, error) {
	if len(base.forces) > 0 {
		return nil, fmt.Errorf("netlist: packed sim requires a fault-free base (has %d forces)", len(base.forces))
	}
	s := &PackedSim{
		p:       base.p,
		gates:   base.p.gates,
		kern:    base.p.kern,
		vals:    make([]uint64, len(base.vals)),
		state:   make([]uint64, len(base.state)),
		next:    make([]uint64, len(base.next)),
		pre:     make([]uint64, len(base.pre)),
		marks:   newTraceMarks(len(base.p.kern)),
		gforces: make([][]laneForce, len(base.gates)),
		scratch: make(map[string]bool, 8),
		clkIDs:  make(map[string]int, 2),
	}
	s.vals[s.p.const1] = ^uint64(0)
	s.Settle()
	obsPackedSims.Add(1)
	return s, nil
}

// GateCount reports the number of flattened primitive gates.
func (s *PackedSim) GateCount() int { return len(s.gates) }

// NetID resolves a net name to its dense id, or -1 when unknown.
func (s *PackedSim) NetID(name string) int {
	if id, ok := s.p.ids[name]; ok {
		return int(id)
	}
	return -1
}

// BusIDs resolves port bits name[0..width-1] per the BitName convention.
func (s *PackedSim) BusIDs(name string, width int) []int {
	ids := make([]int, width)
	for i := range ids {
		ids[i] = s.NetID(BitName(name, i, width))
	}
	return ids
}

// SetID broadcasts one value to every lane of a net.
func (s *PackedSim) SetID(id int, v bool) {
	var w uint64
	if v {
		w = ^uint64(0)
	}
	s.SetWordID(id, w)
}

// SetWordID drives a net with per-lane values.  Driving a net to the word
// it already holds leaves a settled machine settled; a change on an
// otherwise settled machine marks the net's driver and readers for a
// selective trace.
func (s *PackedSim) SetWordID(id int, w uint64) {
	if s.vals[id] == w {
		return
	}
	s.vals[id] = w
	if s.settled {
		s.settled, s.tracing = false, true
	}
	if s.tracing {
		s.marks.net(s.p, int32(id))
	}
}

// unsettle marks the machine for a full sweep at the next Settle.
func (s *PackedSim) unsettle() {
	s.settled = false
	s.tracing = false
}

// GetWordID reads a net's lane-word.
func (s *PackedSim) GetWordID(id int) uint64 { return s.vals[id] }

// GetLaneID reads one lane of a net.
func (s *PackedSim) GetLaneID(id, lane int) bool { return s.vals[id]>>uint(lane)&1 == 1 }

// Set broadcasts to a top-level net by name; unknown names are ignored.
func (s *PackedSim) Set(net string, v bool) {
	if id := s.NetID(net); id >= 0 {
		s.SetID(id, v)
	}
}

// inWord reads one input pin's lane-word, applying any input-force mask.
func (s *PackedSim) inWord(gi int32, slot int) uint64 {
	var w uint64
	if n := s.gates[gi].in[slot]; n >= 0 {
		w = s.vals[n]
	}
	for i := range s.gforces[gi] {
		if f := &s.gforces[gi][i]; !f.out && int(f.slot) == slot {
			return (w &^ f.mask) | f.set
		}
	}
	return w
}

// writeOut drives one output slot's net.  An output force is the packed
// equivalent of CompiledSim disconnecting the driver and pinning the net:
// forced lanes RETAIN the net's current value instead of taking the gate's
// — the forced value is asserted once at inject/Reset and persists because
// nothing else writes those lanes (and, exactly like the scalar
// disconnection, an external Set on the net sticks until Reset).
func (s *PackedSim) writeOut(gi int32, oi int, z uint64) {
	n := s.gates[gi].out[oi]
	if n < 0 {
		return
	}
	for i := range s.gforces[gi] {
		if f := &s.gforces[gi][i]; f.out && int(f.slot) == oi {
			z = (z &^ f.mask) | (s.vals[n] & f.mask)
			break
		}
	}
	s.vals[n] = z
}

// Settle runs the kernel once: every sequential gate exposes its stored
// lanes, then every combinational gate evaluates in topological order, all
// 64 lanes per pass.  Like CompiledSim.Settle, a settled machine returns
// at once, and a machine unsettled only by SetWordID is retraced.
func (s *PackedSim) Settle() {
	if s.settled {
		return
	}
	if s.tracing {
		s.retrace()
		s.settled, s.tracing = true, false
		return
	}
	s.marks.reset()
	v := s.vals
	for i := range s.kern {
		k := &s.kern[i]
		switch k.op {
		case opState:
			st := s.state[k.a]
			v[k.z] = st
			v[k.b] = ^st
		case opInv:
			v[k.z] = ^v[k.a]
		case opBuf:
			v[k.z] = v[k.a]
		case opNand2:
			v[k.z] = ^(v[k.a] & v[k.b])
		case opNor2:
			v[k.z] = ^(v[k.a] | v[k.b])
		case opAnd2:
			v[k.z] = v[k.a] & v[k.b]
		case opOr2:
			v[k.z] = v[k.a] | v[k.b]
		case opXor2:
			v[k.z] = v[k.a] ^ v[k.b]
		case opXnor2:
			v[k.z] = ^(v[k.a] ^ v[k.b])
		case opMux2:
			sel := v[k.c]
			v[k.z] = (v[k.b] & sel) | (v[k.a] &^ sel)
		case opTie0:
			v[k.z] = 0
		case opTie1:
			v[k.z] = ^uint64(0)
		default:
			s.evalSlow(k.a)
		}
	}
	s.settled = true
}

// retrace is CompiledSim.retrace over lane-words: the marked entries run in
// kernel order and a changed word marks its net's readers.  A slow entry
// runs through evalSlow, its output words compared before and after.
func (s *PackedSim) retrace() {
	v := s.vals
	for i := s.marks.next(); i >= 0; i = s.marks.next() {
		k := &s.kern[i]
		var z uint64
		switch k.op {
		case opState:
			st := s.state[k.a]
			s.put(i, k.b, ^st)
			z = st
		case opInv:
			z = ^v[k.a]
		case opBuf:
			z = v[k.a]
		case opNand2:
			z = ^(v[k.a] & v[k.b])
		case opNor2:
			z = ^(v[k.a] | v[k.b])
		case opAnd2:
			z = v[k.a] & v[k.b]
		case opOr2:
			z = v[k.a] | v[k.b]
		case opXor2:
			z = v[k.a] ^ v[k.b]
		case opXnor2:
			z = ^(v[k.a] ^ v[k.b])
		case opMux2:
			sel := v[k.c]
			z = (v[k.b] & sel) | (v[k.a] &^ sel)
		case opTie0:
			z = 0
		case opTie1:
			z = ^uint64(0)
		default:
			s.retraceSlow(i, k.a)
			continue
		}
		s.put(i, k.z, z)
	}
}

// put writes net n from kernel entry i, marking n's readers on a change.
func (s *PackedSim) put(i int, n int32, w uint64) {
	if s.vals[n] != w {
		s.vals[n] = w
		s.marks.readersAfter(s.p, n, i)
	}
}

// retraceSlow evaluates slow entry i (gate gi) and marks the readers of
// every output word it changed.
func (s *PackedSim) retraceSlow(i int, gi int32) {
	g := &s.gates[gi]
	prev := s.prev[:0]
	for _, n := range g.out {
		var w uint64
		if n >= 0 {
			w = s.vals[n]
		}
		prev = append(prev, w)
	}
	s.prev = prev
	s.evalSlow(gi)
	for oi, n := range g.out {
		if n >= 0 && s.vals[n] != prev[oi] {
			s.marks.readersAfter(s.p, n, i)
		}
	}
}

// evalSlow is the slow kernel entry (an opCustom entry naming gate gi):
// custom cells, and any gate carrying a lane force, evaluate through the
// gate header, reading pins through inWord and driving them through
// writeOut so forced lanes see their masks.  A sequential gate exposes its
// stored lanes on Q/QN; custom comb cells evaluate per lane.
func (s *PackedSim) evalSlow(gi int32) {
	g := &s.gates[gi]
	if g.seq {
		st := s.state[gi]
		if g.qSlot >= 0 {
			s.writeOut(gi, g.qSlot, st)
		}
		if g.qnSlot >= 0 {
			s.writeOut(gi, g.qnSlot, ^st)
		}
		return
	}
	var z uint64
	switch g.op {
	case opCustom:
		s.evalCustomComb(gi)
		return
	case opInv:
		z = ^s.inWord(gi, 0)
	case opBuf:
		z = s.inWord(gi, 0)
	case opNand2:
		z = ^(s.inWord(gi, 0) & s.inWord(gi, 1))
	case opNor2:
		z = ^(s.inWord(gi, 0) | s.inWord(gi, 1))
	case opAnd2:
		z = s.inWord(gi, 0) & s.inWord(gi, 1)
	case opOr2:
		z = s.inWord(gi, 0) | s.inWord(gi, 1)
	case opXor2:
		z = s.inWord(gi, 0) ^ s.inWord(gi, 1)
	case opXnor2:
		z = ^(s.inWord(gi, 0) ^ s.inWord(gi, 1))
	case opMux2:
		sel := s.inWord(gi, 2)
		z = (s.inWord(gi, 1) & sel) | (s.inWord(gi, 0) &^ sel)
	case opTie0:
		z = 0
	case opTie1:
		z = ^uint64(0)
	}
	s.writeOut(gi, 0, z)
}

// evalCustomComb evaluates a non-library combinational cell lane by lane.
// Like CompiledSim.evalCustom, an output key the Eval closure omits leaves
// that lane's net bit unchanged.
func (s *PackedSim) evalCustomComb(gi int32) {
	g := &s.gates[gi]
	nOut := len(g.cell.Outputs)
	if cap(s.coutW) < nOut {
		s.coutW = make([]uint64, nOut)
		s.coutM = make([]uint64, nOut)
	}
	w := s.coutW[:nOut]
	m := s.coutM[:nOut]
	for i := range w {
		w[i], m[i] = 0, 0
	}
	for lane := 0; lane < Lanes; lane++ {
		bit := uint64(1) << uint(lane)
		clear(s.scratch)
		for si, f := range g.cell.Inputs {
			s.scratch[f] = s.inWord(gi, si)&bit != 0
		}
		out := g.cell.Eval(s.scratch)
		for oi, f := range g.cell.Outputs {
			if v, ok := out[f]; ok {
				m[oi] |= bit
				if v {
					w[oi] |= bit
				}
			}
		}
	}
	for oi := range w {
		n := g.out[oi]
		if n < 0 || m[oi] == 0 {
			continue
		}
		s.writeOut(gi, oi, (s.vals[n]&^m[oi])|(w[oi]&m[oi]))
	}
}

// evalCustomSeqLane computes one lane of a custom sequential cell's next
// state, mirroring CompiledSim.evalCustom's sequential branch.
func (s *PackedSim) evalCustomSeqLane(gi int32, lane int, clockHigh bool) bool {
	g := &s.gates[gi]
	bit := uint64(1) << uint(lane)
	clear(s.scratch)
	for si, f := range g.cell.Inputs {
		s.scratch[f] = s.inWord(gi, si)&bit != 0
	}
	s.scratch["Q"] = s.state[gi]&bit != 0
	if clockHigh {
		s.scratch[g.cell.Clock] = true
	}
	return g.cell.Eval(s.scratch)["Q"]
}

// evalSeqNext computes the next stored lane-word of a sequential gate from
// the current settled net values — the word-wide twin of
// CompiledSim.evalSeqNext.
func (s *PackedSim) evalSeqNext(gi int32, clockHigh bool) uint64 {
	g := &s.gates[gi]
	switch g.op {
	case opDFF: // D, CK
		return s.inWord(gi, 0)
	case opSDFF: // D, SI, SE, CK
		se := s.inWord(gi, 2)
		return (s.inWord(gi, 1) & se) | (s.inWord(gi, 0) &^ se)
	case opDFFR: // D, CK, R — reset sampled on the edge
		return s.inWord(gi, 0) &^ s.inWord(gi, 2)
	case opLatch: // D, EN
		en := s.inWord(gi, 1)
		if clockHigh {
			en = ^uint64(0)
		}
		return (s.inWord(gi, 0) & en) | (s.state[gi] &^ en)
	}
	var w uint64
	for lane := 0; lane < Lanes; lane++ {
		if s.evalCustomSeqLane(gi, lane, clockHigh) {
			w |= 1 << uint(lane)
		}
	}
	return w
}

// clockWord reads a sequential gate's clock pin through the force masks.
func (s *PackedSim) clockWord(gi int32) uint64 {
	return s.inWord(gi, s.gates[gi].clkSlot)
}

// clkKeep returns the lanes whose clock pin is NOT forced — the packed
// equivalent of CompiledSim's clock-pure skip of flops whose clock pin was
// rewired to a constant: a lane with a stuck clock pin never sees an edge.
func (s *PackedSim) clkKeep(gi int32) uint64 {
	clk := s.gates[gi].clkSlot
	for i := range s.gforces[gi] {
		if f := &s.gforces[gi][i]; !f.out && int(f.slot) == clk {
			return ^f.mask
		}
	}
	return ^uint64(0)
}

// Tick pulses the named top-level clock net across all lanes.
func (s *PackedSim) Tick(clock string) {
	id, ok := s.clkIDs[clock]
	if !ok {
		id = s.NetID(clock)
		s.clkIDs[clock] = id
	}
	if id < 0 {
		return
	}
	s.TickID(id)
}

// TickID pulses a clock net by id with CompiledSim.TickID's semantics,
// per lane: settle low, capture every sequential cell on lanes whose clock
// pin sees a rising edge, commit, settle.  Capture is masked per lane, so a
// lane whose clock pin is stuck never captures — exactly like the scalar
// engine skipping a flop whose clock pin was rewired to a constant.
func (s *PackedSim) TickID(ck int) {
	obsPackedTicks.Add(1)
	if s.p.clockPure[ck] {
		// No gate reads a clock-pure net, so dropping it never unsettles.
		s.vals[ck] = 0
		s.Settle()
		v := s.vals
		for _, e := range s.p.captures(s.p.capts, ck) {
			if len(s.gforces[e.g]) > 0 { // pins read through the lane masks
				capt := s.clkKeep(e.g)
				s.state[e.g] = (s.evalSeqNext(e.g, true) & capt) | (s.state[e.g] &^ capt)
				continue
			}
			switch e.op {
			case opDFF, opLatch: // a pulsed latch enable passes D
				s.state[e.g] = v[e.a]
			case opSDFF:
				se := v[e.c]
				s.state[e.g] = (v[e.b] & se) | (v[e.a] &^ se)
			case opDFFR:
				s.state[e.g] = v[e.a] &^ v[e.b]
			default:
				s.state[e.g] = s.evalSeqNext(e.g, true)
			}
		}
		s.unsettle()
		s.Settle()
		return
	}
	s.SetWordID(ck, 0)
	s.Settle()
	for _, gi := range s.p.seqs {
		s.pre[gi] = s.clockWord(gi)
	}
	s.SetWordID(ck, ^uint64(0))
	s.Settle()
	for _, gi := range s.p.seqs {
		edge := ^s.pre[gi] & s.clockWord(gi)
		if edge != 0 {
			s.next[gi] = (s.evalSeqNext(gi, false) & edge) | (s.state[gi] &^ edge)
		} else {
			s.next[gi] = s.state[gi]
		}
	}
	for _, gi := range s.p.seqs {
		s.state[gi] = s.next[gi]
	}
	s.unsettle()
	s.Settle()
	s.SetWordID(ck, 0)
	s.Settle()
}

// Faults enumerates every injectable stuck-at site, shared with the base.
func (s *PackedSim) Faults() []SAFault { return s.p.faults() }

// InjectLane forces a stuck-at fault on one port of one flattened gate in
// one lane.  Resolution and error cases mirror CompiledSim.Inject exactly
// (so a fault the scalar engine rejects is rejected here too); the effect
// is a lane mask instead of a rewire.  Injecting both polarities on the
// same pin/lane keeps the last value, like re-injecting after ClearFaults.
func (s *PackedSim) InjectLane(lane int, gate, port string, value bool) error {
	if lane < 0 || lane >= Lanes {
		return fmt.Errorf("netlist: packed lane %d out of range", lane)
	}
	gi, ok := s.p.byName[gate]
	if !ok {
		return fmt.Errorf("netlist: no gate named %s", gate)
	}
	g := &s.gates[gi]
	bit := uint64(1) << uint(lane)
	for si, f := range g.cell.Inputs {
		if f != port {
			continue
		}
		if g.in[si] < 0 {
			return fmt.Errorf("netlist: gate %s port %s is unconnected", gate, port)
		}
		s.addForce(gi, si, false, bit, value)
		return nil
	}
	for oi, f := range g.cell.Outputs {
		if f != port {
			continue
		}
		n := g.out[oi]
		if n < 0 {
			return fmt.Errorf("netlist: gate %s port %s is unconnected", gate, port)
		}
		s.addForce(gi, oi, true, bit, value)
		// Assert immediately, like the scalar Inject pinning the net.
		if value {
			s.vals[n] |= bit
		} else {
			s.vals[n] &^= bit
		}
		return nil
	}
	return fmt.Errorf("netlist: gate %s (%s) has no port %s", gate, g.cell.Name, port)
}

// addForce merges one lane force into gate gi's list.  A gate's first
// force swaps its kernel entry for a slow entry (custom cells already have
// one); the shared kernel is copied on the first swap, so other sims and
// the compiled program never see this sim's forces.
func (s *PackedSim) addForce(gi int32, slot int, out bool, bit uint64, value bool) {
	s.unsettle()
	var set uint64
	if value {
		set = bit
	}
	for i := range s.gforces[gi] {
		if f := &s.gforces[gi][i]; f.out == out && int(f.slot) == slot {
			f.mask |= bit
			f.set = (f.set &^ bit) | set
			return
		}
	}
	if len(s.gforces[gi]) == 0 {
		s.fgates = append(s.fgates, gi)
		if ki := s.p.kpos[gi]; s.kern[ki].op != opCustom {
			if !s.ownKern {
				s.kern = append([]kOp(nil), s.kern...)
				s.ownKern = true
			}
			s.kern[ki] = kOp{op: opCustom, a: gi}
		}
	}
	s.gforces[gi] = append(s.gforces[gi], laneForce{slot: int32(slot), out: out, mask: bit, set: set})
}

// ClearFaults removes every lane force and restores the forced gates'
// kernel entries.  Net values are stale until the next Settle (campaigns
// call Reset).
func (s *PackedSim) ClearFaults() {
	for _, gi := range s.fgates {
		s.gforces[gi] = s.gforces[gi][:0]
		if s.ownKern {
			ki := s.p.kpos[gi]
			s.kern[ki] = s.p.kern[ki]
		}
	}
	s.fgates = s.fgates[:0]
	s.unsettle()
}

// Reset returns every lane of every net and sequential bit to 0 and
// settles.  Lane forces stay active; forced output nets are re-asserted on
// their lanes, like the scalar Reset.
func (s *PackedSim) Reset() {
	clear(s.vals)
	s.vals[s.p.const1] = ^uint64(0)
	clear(s.state)
	for _, gi := range s.fgates {
		for _, f := range s.gforces[gi] {
			if f.out {
				s.vals[s.gates[gi].out[f.slot]] = f.set
			}
		}
	}
	s.unsettle()
	s.Settle()
}
