package netlist

import (
	"fmt"

	"steac/internal/obs"
)

// Observability: Tick-level counting is the finest grain instrumented — a
// tick evaluates the whole gate array (microseconds), so one atomic add is
// noise.  Settle stays uninstrumented: it runs up to four times per tick
// and is the innermost hot loop.
var (
	obsSims     = obs.GetCounter("netlist.sims_compiled")
	obsTicks    = obs.GetCounter("netlist.ticks")
	obsInjected = obs.GetCounter("netlist.faults_injected")
)

// CompiledSim is a compiled, levelized variant of Simulator for the same
// two-valued zero-delay semantics.  Nets are interned to dense integer ids,
// library cells evaluate through an opcode switch instead of per-call maps,
// and combinational gates are topologically sorted at build time so a
// Settle is a single deterministic pass instead of an iterative fixpoint.
// On the generated BIST and wrapper netlists it is two to three orders of
// magnitude faster than Simulator, which is what makes full-March-session
// differential runs and gate-level fault campaigns tractable.
//
// The combinational logic settles through one flat kernel (see kOp), and
// Settle is skipped entirely while nothing has changed since the last one:
// SetID/Set unsettle the machine only when they change a value, while a
// Tick's state commit, Reset, LoadState, Inject and ClearFaults always do.
//
// The design must be free of combinational loops (NewCompiledSim reports
// one as an error).  Semantics — including the treatment of latches as
// edge-triggered on their enable and the synchronous sampling of the DFFR
// reset pin — are bit-identical to Simulator; TestCompiledSimMatchesSimulator
// locks that in.
type CompiledSim struct {
	p     *csProg
	gates []cGate // per-sim gate headers; in/out slices are copied on fault injection
	// kern is the settle kernel: p.kern until the first Inject, then a
	// private copy the faults are patched into (ownKern).
	kern    []kOp
	ownKern bool
	vals    []bool // net values, indexed by net id
	state   []bool // per-gate stored bit (sequential gates only)
	next    []bool
	pre     []bool // scratch: pre-edge clock values in the generic Tick path
	settled bool   // vals is settled for the current inputs, state and faults

	forces  []cForce        // active stuck-at injections, in injection order
	scratch map[string]bool // reused input map for custom (non-library) cells
	clkIDs  map[string]int  // cached NetID lookups for Tick
}

// csProg is the shared immutable part of a compiled simulation: net
// interning, topological order and the fault-site list.  Clones share it.
type csProg struct {
	names     []string
	ids       map[string]int32
	comb      []int32 // combinational gate indices in topological order
	seqs      []int32 // sequential gate indices
	byName    map[string]int32
	sites     []SAFault
	const0    int32   // reserved always-0 net backing stuck-at-0 input forces
	const1    int32   // reserved always-1 net
	sink      int32   // reserved net unconnected and faulted kernel outputs write to
	clockPure []bool  // net id -> feeds only sequential clock pins
	kern      []kOp   // fault-free settle kernel; never written after build
	kpos      []int32 // gate index -> kernel entry
}

// kOp is one gate of the flat settle kernel: net z takes op(a, b, c).
// Unconnected inputs read $const0 and unconnected or faulted outputs write
// $sink, so evaluation needs no connectivity branch.  For opState, a is a
// sequential gate whose stored bit goes to z (Q) and its complement to b
// (QN); for opCustom, a is a gate that evaluates through its header —
// a custom combinational cell via evalCustom, or, in a PackedSim, any gate
// carrying a lane force.
type kOp struct {
	op      csOp
	a, b, c int32
	z       int32
}

type cGate struct {
	op      csOp
	cell    *Cell
	name    string
	in      []int32 // net id per cell.Inputs slot; -1 when unconnected
	out     []int32 // net id per cell.Outputs slot; -1 when unconnected
	seq     bool
	clkSlot int // index into in of the clock pin (sequential cells)
	qSlot   int // index into out of "Q" (-1 if absent)
	qnSlot  int // index into out of "QN" (-1 if absent)
}

// cForce records one injected stuck-at so ClearFaults can undo it.
type cForce struct {
	gate int32
	slot int
	out  bool
	orig int32 // original net id of the rewired slot
	val  bool  // forced value (output forces re-assert it on Reset)
}

type csOp uint8

const (
	opCustom csOp = iota
	opInv
	opBuf
	opNand2
	opNor2
	opAnd2
	opOr2
	opXor2
	opXnor2
	opMux2
	opTie0
	opTie1
	opDFF
	opSDFF
	opDFFR
	opLatch
	opState // kernel only: expose a sequential gate's stored bit
)

// opFor maps a cell to its opcode.  Only cells of the shared default
// library compile to opcodes — a user library may reuse a name like "INV"
// with different semantics, so anything else evaluates through cell.Eval.
func opFor(c *Cell) csOp {
	if dc, ok := DefaultLibrary().Cell(c.Name); !ok || dc != c {
		return opCustom
	}
	switch c.Name {
	case CellInv:
		return opInv
	case CellBuf:
		return opBuf
	case CellNand2:
		return opNand2
	case CellNor2:
		return opNor2
	case CellAnd2:
		return opAnd2
	case CellOr2:
		return opOr2
	case CellXor2:
		return opXor2
	case CellXnor2:
		return opXnor2
	case CellMux2:
		return opMux2
	case CellTie0:
		return opTie0
	case CellTie1:
		return opTie1
	case CellDFF:
		return opDFF
	case CellSDFF:
		return opSDFF
	case CellDFFR:
		return opDFFR
	case CellLatchL:
		return opLatch
	}
	return opCustom
}

// NewCompiledSim flattens top inside d, interns its nets, levelizes the
// combinational logic and returns a simulator with all nets at 0.
func NewCompiledSim(d *Design, top string) (*CompiledSim, error) {
	fgs, err := flatten(d, top)
	if err != nil {
		return nil, err
	}
	p := &csProg{
		ids:    make(map[string]int32),
		byName: make(map[string]int32, len(fgs)),
		sites:  enumerateFaults(fgs),
	}
	intern := func(n string) int32 {
		if id, ok := p.ids[n]; ok {
			return id
		}
		id := int32(len(p.names))
		p.names = append(p.names, n)
		p.ids[n] = id
		return id
	}
	// Intern the top module's port bits first so they exist even when a
	// port is unconnected inside (NetID must resolve every pin).
	if m := d.Modules[top]; m != nil {
		for _, port := range m.Ports {
			for _, b := range port.Bits() {
				intern(b)
			}
		}
	}
	gates := make([]cGate, len(fgs))
	for i, fg := range fgs {
		g := cGate{
			op: opFor(fg.cell), cell: fg.cell, name: fg.name,
			seq: fg.cell.Seq, qSlot: -1, qnSlot: -1,
		}
		g.in = make([]int32, len(fg.cell.Inputs))
		for si, f := range fg.cell.Inputs {
			if net, ok := fg.conns[f]; ok {
				g.in[si] = intern(net)
			} else {
				g.in[si] = -1
			}
			if fg.cell.Seq && f == fg.cell.Clock {
				g.clkSlot = si
			}
		}
		g.out = make([]int32, len(fg.cell.Outputs))
		for oi, f := range fg.cell.Outputs {
			if net, ok := fg.conns[f]; ok {
				g.out[oi] = intern(net)
			} else {
				g.out[oi] = -1
			}
			switch f {
			case "Q":
				g.qSlot = oi
			case "QN":
				g.qnSlot = oi
			}
		}
		if _, dup := p.byName[fg.name]; dup {
			return nil, fmt.Errorf("netlist: duplicate flattened gate name %s", fg.name)
		}
		p.byName[fg.name] = int32(i)
		gates[i] = g
	}
	p.const0 = intern("$const0")
	p.const1 = intern("$const1")
	p.sink = intern("$sink")
	nNets := len(p.names)

	// Topological order of the combinational gates.  Sequential inputs are
	// sampled only at capture time, after a Settle, so they impose no
	// ordering constraint; only comb->comb edges matter.
	driver := make([]int32, nNets)
	for i := range driver {
		driver[i] = -1
	}
	combCount := 0
	for i := range gates {
		if gates[i].seq {
			continue
		}
		combCount++
		for _, n := range gates[i].out {
			if n >= 0 {
				driver[n] = int32(i)
			}
		}
	}
	indeg := make([]int, len(gates))
	adj := make([][]int32, len(gates))
	for i := range gates {
		if gates[i].seq {
			continue
		}
		for _, n := range gates[i].in {
			if n < 0 || driver[n] < 0 {
				continue
			}
			d := driver[n]
			adj[d] = append(adj[d], int32(i))
			indeg[i]++
		}
	}
	queue := make([]int32, 0, combCount)
	for i := range gates {
		if !gates[i].seq && indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	p.comb = make([]int32, 0, combCount)
	for len(queue) > 0 {
		gi := queue[0]
		queue = queue[1:]
		p.comb = append(p.comb, gi)
		for _, succ := range adj[gi] {
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(p.comb) != combCount {
		return nil, fmt.Errorf("netlist: %s has a combinational loop (%d of %d gates unlevelized)",
			top, combCount-len(p.comb), combCount)
	}
	for i := range gates {
		if gates[i].seq {
			p.seqs = append(p.seqs, int32(i))
		}
	}
	// The kernel exposes every stored bit first, then evaluates the
	// combinational gates in topological order.
	p.kpos = make([]int32, len(gates))
	for _, gi := range append(append([]int32(nil), p.seqs...), p.comb...) {
		p.kpos[gi] = int32(len(p.kern))
		p.kern = append(p.kern, p.kernelEntry(gi, &gates[gi]))
	}

	// A net is "clock pure" when its only loads are sequential clock pins
	// and no gate drives it; pulsing it cannot move any other net, which
	// enables the two-settle Tick fast path.
	p.clockPure = make([]bool, nNets)
	for i := range p.clockPure {
		p.clockPure[i] = true
	}
	for i := range gates {
		g := &gates[i]
		for si, n := range g.in {
			if n >= 0 && !(g.seq && si == g.clkSlot) {
				p.clockPure[n] = false
			}
		}
		for _, n := range g.out {
			if n >= 0 {
				p.clockPure[n] = false
			}
		}
	}

	s := &CompiledSim{
		p:       p,
		gates:   gates,
		kern:    p.kern,
		vals:    make([]bool, nNets),
		state:   make([]bool, len(gates)),
		next:    make([]bool, len(gates)),
		pre:     make([]bool, len(gates)),
		scratch: make(map[string]bool, 8),
		clkIDs:  make(map[string]int, 2),
	}
	s.vals[p.const1] = true
	s.Settle()
	obsSims.Add(1)
	return s, nil
}

// kernelEntry compiles one gate into its kernel entry.
func (p *csProg) kernelEntry(gi int32, g *cGate) kOp {
	switch {
	case g.seq:
		k := kOp{op: opState, a: gi, b: p.sink, z: p.sink}
		if g.qSlot >= 0 && g.out[g.qSlot] >= 0 {
			k.z = g.out[g.qSlot]
		}
		if g.qnSlot >= 0 && g.out[g.qnSlot] >= 0 {
			k.b = g.out[g.qnSlot]
		}
		return k
	case g.op == opCustom:
		return kOp{op: opCustom, a: gi}
	}
	k := kOp{op: g.op, a: p.const0, b: p.const0, c: p.const0, z: p.sink}
	for si, n := range g.in {
		if n >= 0 {
			k.setIn(si, n)
		}
	}
	if len(g.out) > 0 && g.out[0] >= 0 {
		k.z = g.out[0]
	}
	return k
}

// setIn rewires input slot si of a library-cell entry to net n.
func (k *kOp) setIn(si int, n int32) {
	switch si {
	case 0:
		k.a = n
	case 1:
		k.b = n
	case 2:
		k.c = n
	}
}

// patchKernel mirrors a fault rewiring of gate gi into the kernel: input
// slot si now reads net n, or (out) output slot si now writes n (-1
// meaning disconnected).  The shared kernel is copied on the first patch,
// so clones and the compiled program never see this sim's faults.  Custom
// cells' pins and sequential inputs are read through the gate header.
func (s *CompiledSim) patchKernel(gi int32, si int, out bool, n int32) {
	if n < 0 {
		n = s.p.sink
	}
	ki := s.p.kpos[gi]
	k := s.kern[ki]
	g := &s.gates[gi]
	switch {
	case g.seq: // only the exposed Q/QN nets live in the kernel
		switch {
		case out && si == g.qSlot:
			k.z = n
		case out && si == g.qnSlot:
			k.b = n
		default:
			return
		}
	case k.op == opCustom:
		return
	case out:
		k.z = n
	default:
		k.setIn(si, n)
	}
	if !s.ownKern {
		s.kern = append([]kOp(nil), s.kern...)
		s.ownKern = true
	}
	s.kern[ki] = k
}

// GateCount reports the number of flattened primitive gates.
func (s *CompiledSim) GateCount() int { return len(s.gates) }

// NetID resolves a net name to its dense id, or -1 when unknown.  Resolve
// once and use the *ID accessors in per-cycle loops.
func (s *CompiledSim) NetID(name string) int {
	if id, ok := s.p.ids[name]; ok {
		return int(id)
	}
	return -1
}

// BusIDs resolves port bits name[0..width-1] following the BitName
// convention (a width-1 bus is the bare name); missing bits map to -1.
func (s *CompiledSim) BusIDs(name string, width int) []int {
	ids := make([]int, width)
	for i := range ids {
		ids[i] = s.NetID(BitName(name, i, width))
	}
	return ids
}

// SetID drives a net by id.  Driving a net to the value it already holds
// leaves a settled machine settled.
func (s *CompiledSim) SetID(id int, v bool) {
	if s.vals[id] != v {
		s.vals[id] = v
		s.settled = false
	}
}

// GetID reads a net by id.
func (s *CompiledSim) GetID(id int) bool { return s.vals[id] }

// Set drives a top-level net by name; unknown names are ignored (the
// compiled net set is fixed at build time).
func (s *CompiledSim) Set(net string, v bool) {
	if id := s.NetID(net); id >= 0 {
		s.SetID(id, v)
	}
}

// Get reads a net by name (false when unknown).
func (s *CompiledSim) Get(net string) bool {
	if id := s.NetID(net); id >= 0 {
		return s.vals[id]
	}
	return false
}

// SetBus drives port bits name[0..len(v)-1] from v (width-1 buses use the
// bare net name, per the BitName convention).
func (s *CompiledSim) SetBus(name string, v []bool) {
	for i, b := range v {
		s.Set(BitName(name, i, len(v)), b)
	}
}

// GetBus reads port bits name[0..width-1].
func (s *CompiledSim) GetBus(name string, width int) []bool {
	v := make([]bool, width)
	for i := range v {
		v[i] = s.Get(BitName(name, i, width))
	}
	return v
}

func (s *CompiledSim) in1(g *cGate, slot int) bool {
	n := g.in[slot]
	if n < 0 {
		return false
	}
	return s.vals[n]
}

// Settle exposes sequential state and evaluates every combinational gate
// once in topological order.  Acyclicity is checked at build time, so a
// single pass always reaches the fixpoint — and a second pass with nothing
// changed would be a no-op, so a settled machine returns at once.
func (s *CompiledSim) Settle() {
	if s.settled {
		return
	}
	v := s.vals
	for i := range s.kern {
		k := &s.kern[i]
		switch k.op {
		case opState:
			st := s.state[k.a]
			v[k.z] = st
			v[k.b] = !st
		case opInv:
			v[k.z] = !v[k.a]
		case opBuf:
			v[k.z] = v[k.a]
		case opNand2:
			v[k.z] = !(v[k.a] && v[k.b])
		case opNor2:
			v[k.z] = !(v[k.a] || v[k.b])
		case opAnd2:
			v[k.z] = v[k.a] && v[k.b]
		case opOr2:
			v[k.z] = v[k.a] || v[k.b]
		case opXor2:
			v[k.z] = v[k.a] != v[k.b]
		case opXnor2:
			v[k.z] = v[k.a] == v[k.b]
		case opMux2:
			if v[k.c] {
				v[k.z] = v[k.b]
			} else {
				v[k.z] = v[k.a]
			}
		case opTie0:
			v[k.z] = false
		case opTie1:
			v[k.z] = true
		default:
			s.evalCustom(k.a, false)
		}
	}
	s.settled = true
}

// evalCustom evaluates a non-library cell through its Eval closure using a
// reused scratch map.  For sequential cells it returns the next state via
// the caller instead of writing nets.
func (s *CompiledSim) evalCustom(gi int32, clockHigh bool) bool {
	g := &s.gates[gi]
	clear(s.scratch)
	for si, f := range g.cell.Inputs {
		s.scratch[f] = s.in1(g, si)
	}
	if g.seq {
		s.scratch["Q"] = s.state[gi]
		if clockHigh {
			s.scratch[g.cell.Clock] = true
		}
		return g.cell.Eval(s.scratch)["Q"]
	}
	out := g.cell.Eval(s.scratch)
	for oi, f := range g.cell.Outputs {
		if g.out[oi] >= 0 {
			if v, ok := out[f]; ok {
				s.vals[g.out[oi]] = v
			}
		}
	}
	return false
}

// evalSeqNext computes the next stored bit of a sequential gate from the
// current settled net values.  clockHigh tells level-sensitive cells that
// the pulsed enable is (conceptually) high even if the net value still
// reads low on the fast Tick path.
func (s *CompiledSim) evalSeqNext(gi int32, clockHigh bool) bool {
	g := &s.gates[gi]
	switch g.op {
	case opDFF: // D, CK
		return s.in1(g, 0)
	case opSDFF: // D, SI, SE, CK
		if s.in1(g, 2) {
			return s.in1(g, 1)
		}
		return s.in1(g, 0)
	case opDFFR: // D, CK, R — reset sampled on the edge, like Simulator
		if s.in1(g, 2) {
			return false
		}
		return s.in1(g, 0)
	case opLatch: // D, EN
		if clockHigh || s.in1(g, 1) {
			return s.in1(g, 0)
		}
		return s.state[gi]
	}
	return s.evalCustom(gi, clockHigh)
}

func (s *CompiledSim) clockVal(gi int32) bool {
	g := &s.gates[gi]
	return s.in1(g, g.clkSlot)
}

// Tick pulses the named top-level clock net with the same semantics as
// Simulator.Tick.
func (s *CompiledSim) Tick(clock string) {
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

// TickID pulses a clock net by id: settle low, capture every sequential
// cell whose clock pin sees a rising edge (through any gating logic),
// commit, settle.  When the clock net feeds nothing but clock pins the
// high/low half-settles are provably no-ops and are skipped.
func (s *CompiledSim) TickID(ck int) {
	obsTicks.Add(1)
	if s.p.clockPure[ck] {
		// No gate reads a clock-pure net, so its level never moves a
		// settled value: dropping it leaves the machine settled.
		s.vals[ck] = false
		s.Settle()
		for _, gi := range s.p.seqs {
			g := &s.gates[gi]
			if g.in[g.clkSlot] == int32(ck) {
				s.state[gi] = s.evalSeqNext(gi, true)
			}
		}
		s.settled = false
		s.Settle()
		return
	}
	s.SetID(ck, false)
	s.Settle()
	for _, gi := range s.p.seqs {
		s.pre[gi] = s.clockVal(gi)
	}
	s.SetID(ck, true)
	s.Settle()
	for _, gi := range s.p.seqs {
		if !s.pre[gi] && s.clockVal(gi) {
			s.next[gi] = s.evalSeqNext(gi, false)
		} else {
			s.next[gi] = s.state[gi]
		}
	}
	for _, gi := range s.p.seqs {
		s.state[gi] = s.next[gi]
	}
	s.settled = false
	s.Settle()
	s.SetID(ck, false)
	s.Settle()
}

// LoadState forces the stored bit of the named sequential cell.
func (s *CompiledSim) LoadState(flatName string, v bool) error {
	gi, ok := s.p.byName[flatName]
	if !ok || !s.gates[gi].seq {
		return fmt.Errorf("netlist: no sequential cell named %s", flatName)
	}
	s.state[gi] = v
	s.settled = false
	return nil
}

// Faults enumerates every injectable stuck-at site in deterministic order.
// The returned slice is shared; callers must not modify it.
func (s *CompiledSim) Faults() []SAFault { return s.p.sites }

// Inject forces a stuck-at fault on one port of one flattened gate.  Input
// forces rewire that gate pin to a reserved constant net; output forces
// disconnect the driver and pin the net, so all fanout sees the fault.
// Effects appear at the next Settle/Tick; ClearFaults undoes everything.
func (s *CompiledSim) Inject(gate, port string, value bool) error {
	gi, ok := s.p.byName[gate]
	if !ok {
		return fmt.Errorf("netlist: no gate named %s", gate)
	}
	g := &s.gates[gi]
	for si, f := range g.cell.Inputs {
		if f != port {
			continue
		}
		orig := g.in[si]
		if orig < 0 {
			return fmt.Errorf("netlist: gate %s port %s is unconnected", gate, port)
		}
		// Copy-on-write: the backing array may be shared with clones.
		g.in = append([]int32(nil), g.in...)
		if value {
			g.in[si] = s.p.const1
		} else {
			g.in[si] = s.p.const0
		}
		s.patchKernel(gi, si, false, g.in[si])
		s.forces = append(s.forces, cForce{gate: gi, slot: si, orig: orig, val: value})
		s.settled = false
		obsInjected.Add(1)
		return nil
	}
	for oi, f := range g.cell.Outputs {
		if f != port {
			continue
		}
		orig := g.out[oi]
		if orig < 0 {
			return fmt.Errorf("netlist: gate %s port %s is unconnected", gate, port)
		}
		g.out = append([]int32(nil), g.out...)
		g.out[oi] = -1
		s.patchKernel(gi, oi, true, -1)
		s.vals[orig] = value
		s.forces = append(s.forces, cForce{gate: gi, slot: oi, out: true, orig: orig, val: value})
		s.settled = false
		obsInjected.Add(1)
		return nil
	}
	return fmt.Errorf("netlist: gate %s (%s) has no port %s", gate, g.cell.Name, port)
}

// ClearFaults removes every injected fault.  Downstream net values are
// stale until the next Settle (a campaign normally calls Reset).  The
// restores are copy-on-write too: a clone taken while a fault was active
// shares the rewired in/out arrays and must keep its fault.
func (s *CompiledSim) ClearFaults() {
	for i := len(s.forces) - 1; i >= 0; i-- {
		f := s.forces[i]
		g := &s.gates[f.gate]
		if f.out {
			g.out = append([]int32(nil), g.out...)
			g.out[f.slot] = f.orig
		} else {
			g.in = append([]int32(nil), g.in...)
			g.in[f.slot] = f.orig
		}
		s.patchKernel(f.gate, f.slot, f.out, f.orig)
	}
	s.forces = s.forces[:0]
	s.settled = false
}

// Reset returns every net and sequential bit to 0 and settles.  Active
// faults stay injected (forced nets are re-asserted).
func (s *CompiledSim) Reset() {
	for i := range s.vals {
		s.vals[i] = false
	}
	s.vals[s.p.const1] = true
	for i := range s.state {
		s.state[i] = false
	}
	for _, f := range s.forces {
		if f.out {
			s.vals[f.orig] = f.val
		}
	}
	s.settled = false
	s.Settle()
}

// Clone returns an independent simulator over the same compiled program
// with all nets and states at 0.  Cloning is cheap (no re-flattening or
// re-levelization), which is what fault campaigns use to give each worker
// a private machine.  Active faults are carried over; a fault-free clone
// shares the compiled kernel until its own first Inject.
func (s *CompiledSim) Clone() *CompiledSim {
	c := &CompiledSim{
		p:       s.p,
		gates:   append([]cGate(nil), s.gates...),
		kern:    s.p.kern,
		vals:    make([]bool, len(s.vals)),
		state:   make([]bool, len(s.state)),
		next:    make([]bool, len(s.next)),
		pre:     make([]bool, len(s.pre)),
		forces:  append([]cForce(nil), s.forces...),
		scratch: make(map[string]bool, 8),
		clkIDs:  make(map[string]int, 2),
	}
	if len(s.forces) > 0 {
		c.kern = append([]kOp(nil), s.kern...)
		c.ownKern = true
	}
	c.vals[c.p.const1] = true
	for _, f := range c.forces {
		if f.out {
			c.vals[f.orig] = f.val
		}
	}
	c.Settle()
	return c
}
