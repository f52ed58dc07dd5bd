package netlist

import (
	"fmt"
	"slices"
	"sync"

	"steac/internal/obs"
)

// Observability: Tick-level counting is the finest grain instrumented — a
// tick costs one or two kernel passes (microseconds), so one atomic add is
// noise.  Settle stays uninstrumented: it runs after every input change and
// twice per Tick, and is the innermost hot loop.
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
// The combinational logic settles through one flat kernel (see kOp) laid
// out level by level, the stored bits first, each level's entries grouped
// by opcode: a sweep runs it as runs (see kRun), one switch per run and a
// tight loop over its entries, with short groups merged into one run that
// dispatches per entry.  Settle is skipped entirely while nothing has
// changed since the last one:
// SetID/Set unsettle the machine only when they change a value, while a
// Tick's state commit, Reset, LoadState, Inject and ClearFaults always do.
// When value-changing SetIDs are all that happened since the last Settle,
// the next one evaluates only their fanout (a selective trace); anything
// else sweeps the whole kernel.  A clock-pure Tick captures through the
// clock's capture list, grouped into runs the same way, instead of
// scanning every sequential gate.
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
	// capts holds the per-clock capture lists: p.capts until the first
	// Inject on a sequential gate's input pin, then a private copy with
	// that gate's entry recompiled (ownCapts).
	capts    []capEntry
	ownCapts bool
	vals     []bool // net values, indexed by net id
	state    []bool // per-gate stored bit (sequential gates only)
	next     []bool
	pre      []bool // scratch: pre-edge clock values in the generic Tick path
	prev     []bool // scratch: a custom cell's outputs before a traced evaluation
	settled  bool   // vals is settled for the current inputs, state and faults
	// tracing: only value-changing SetIDs unsettled the machine, so Settle
	// evaluates the kernel entries marked in marks instead of sweeping.
	tracing bool
	marks   traceMarks

	forces  []cForce        // active stuck-at injections, in injection order
	scratch map[string]bool // reused input map for custom (non-library) cells
	clkIDs  map[string]int  // cached NetID lookups for Tick
}

// csProg is the shared immutable part of a compiled simulation: net
// interning, topological order, the settle kernel with its fanout, the
// capture lists and the fault-site list.  Clones and packed sims share it.
type csProg struct {
	names     []string
	ids       map[string]int32
	gates     []cGate // pristine gate headers; sims copy them before faulting
	comb      []int32 // combinational gate indices in topological order
	seqs      []int32 // sequential gate indices
	byName    map[string]int32
	const0    int32   // reserved always-0 net backing stuck-at-0 input forces
	const1    int32   // reserved always-1 net
	sink      int32   // reserved write-only net unconnected and faulted kernel outputs write to
	clockPure []bool  // net id -> feeds only sequential clock pins
	kern      []kOp   // fault-free settle kernel; never written after build
	kpos      []int32 // gate index -> kernel entry
	// The kernel is laid out level by level: level l is
	// kern[lvlOff[l]:lvlOff[l+1]], level 0 the stored-bit entries, and a
	// combinational entry reads only nets that earlier levels write.  A
	// sweep runs it as runs (see kRun).
	lvlOff []int32
	runs   []kRun

	// Trace fanout (CSR): rd[rdOff[n]:rdOff[n+1]] are the kernel positions
	// reading net n, drv[n] the position writing it (-1: none).
	rdOff, rd []int32
	drv       []int32
	// Capture lists: the sequential gates clocked by net n are the entries
	// of the runs capRuns[capRunOff[n]:capRunOff[n+1]] of capts; cpos maps a
	// gate to its entry (-1: none).
	capRunOff []int32
	capRuns   []kRun
	capts     []capEntry
	cpos      []int32

	sitesOnce sync.Once
	sites     []SAFault // built by the first Faults call
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

// kRun is one run of the settle kernel or of a capture list: entries
// [lo, hi) that all compiled to opcode op, swept by one switch and a tight
// loop, or (op opMixed) short opcode groups merged into one run that
// dispatches per entry.  An entry in a homogeneous run may still carry
// another opcode once a fault has swapped it for a slow entry; the run
// loops check for that.
type kRun struct {
	op     csOp
	lo, hi int32
}

// minRun is the shortest opcode group that gets a run of its own.  Shorter
// groups merge into an opMixed run, so the small BIST benches, whose levels
// hold a handful of gates each, keep the per-entry dispatch.
const minRun = 8

// groupRuns sorts items by opcode group, appends them to out and records
// their runs: each opcode group of at least minRun items forms a run, in
// opcode order, and the shorter groups follow as one opMixed run.  Items
// keep their relative order within a group, and a run continuing the last
// run of runs with the same opcode extends it.
func groupRuns[T any](out []T, runs []kRun, items []T, opOf func(T) csOp) ([]T, []kRun) {
	var n [opMixed]int
	for _, it := range items {
		n[opOf(it)]++
	}
	runOp := func(it T) csOp {
		if op := opOf(it); n[op] >= minRun {
			return op
		}
		return opMixed
	}
	rank := func(it T) int { return int(runOp(it))<<8 | int(opOf(it)) }
	slices.SortStableFunc(items, func(x, y T) int { return rank(x) - rank(y) })
	for _, it := range items {
		pos := int32(len(out))
		out = append(out, it)
		if op, k := runOp(it), len(runs)-1; k >= 0 && runs[k].op == op && runs[k].hi == pos {
			runs[k].hi++
		} else {
			runs = append(runs, kRun{op: op, lo: pos, hi: pos + 1})
		}
	}
	return out, runs
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
	opHold  // capture list only: a gate whose clock pin is forced never captures
	opMixed // runs only: entries of several opcodes, dispatched per entry
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
	// The kernel exposes every stored bit first (level 0), then evaluates
	// the combinational gates level by level: a gate's level is one past
	// its deepest combinational driver's, so a level's gates read only
	// nets of earlier levels and may run in any order — grouped by opcode.
	depth := make([]int32, len(gates))
	nLevels := int32(1)
	for _, gi := range p.comb {
		l := int32(1)
		for _, n := range gates[gi].in {
			if n >= 0 && driver[n] >= 0 {
				l = max(l, depth[driver[n]]+1)
			}
		}
		depth[gi] = l
		nLevels = max(nLevels, l+1)
	}
	var byLevel []int32
	p.lvlOff, byLevel = buildCSR(int(nLevels), func(add func(key, val int32)) {
		for gi := range gates {
			add(depth[gi], int32(gi))
		}
	})
	entryOp := func(gi int32) csOp {
		if gates[gi].seq {
			return opState
		}
		return gates[gi].op
	}
	order := make([]int32, 0, len(gates))
	for l := range nLevels {
		order, p.runs = groupRuns(order, p.runs, byLevel[p.lvlOff[l]:p.lvlOff[l+1]], entryOp)
	}
	p.kpos = make([]int32, len(gates))
	p.kern = make([]kOp, len(order))
	for i, gi := range order {
		p.kpos[gi] = int32(i)
		p.kern[i] = p.kernelEntry(gi, &gates[gi])
	}
	p.gates = gates
	p.buildFanout(nNets, order)

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
		gates:   slices.Clone(gates),
		kern:    p.kern,
		capts:   p.capts,
		vals:    make([]bool, nNets),
		state:   make([]bool, len(gates)),
		next:    make([]bool, len(gates)),
		pre:     make([]bool, len(gates)),
		marks:   newTraceMarks(len(p.kern)),
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
// cells' pins are read through the gate header; a sequential gate's inputs
// live in its capture entry, which is recompiled from the header.
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
		case !out:
			s.patchCapture(gi)
			return
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

// patchCapture recompiles sequential gate gi's capture entry from its
// (faulted or restored) header, copying the shared lists on the first
// patch like patchKernel.
func (s *CompiledSim) patchCapture(gi int32) {
	ci := s.p.cpos[gi]
	if ci < 0 {
		return
	}
	if !s.ownCapts {
		s.capts = slices.Clone(s.capts)
		s.ownCapts = true
	}
	s.capts[ci] = s.p.captureEntry(gi, &s.gates[gi])
}

// unsettle marks the machine for a full sweep at the next Settle.
func (s *CompiledSim) unsettle() {
	s.settled = false
	s.tracing = false
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
// leaves a settled machine settled; a change on an otherwise settled
// machine marks the net's driver and readers for a selective trace.
func (s *CompiledSim) SetID(id int, v bool) {
	if s.vals[id] == v {
		return
	}
	s.vals[id] = v
	if s.settled {
		s.settled, s.tracing = false, true
	}
	if s.tracing {
		s.marks.net(s.p, int32(id))
	}
}

// GetID reads a net by id.
func (s *CompiledSim) GetID(id int) bool { return s.vals[id] }

// SetWordID is PackedSim's lane-word write on the one-lane machine: the net
// takes lane Lanes-1 of w, so a driver written against lane-words runs on
// either engine.
func (s *CompiledSim) SetWordID(id int, w uint64) { s.SetID(id, int64(w) < 0) }

// GetWordID reads a net as a lane-word, its one bit broadcast to every lane.
func (s *CompiledSim) GetWordID(id int) uint64 {
	if s.vals[id] {
		return ^uint64(0)
	}
	return 0
}

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
// once in level order.  Acyclicity is checked at build time, so a single
// pass always reaches the fixpoint — and a second pass with nothing
// changed would be a no-op, so a settled machine returns at once.  When
// only SetID changed nets since the last Settle, the pass visits just the
// entries those changes reach (retrace); the result is the same.
func (s *CompiledSim) Settle() {
	if s.settled {
		return
	}
	if s.tracing {
		s.retrace()
		s.settled, s.tracing = true, false
		return
	}
	s.marks.reset()
	for _, r := range s.p.runs {
		s.sweep(r.op, s.kern[r.lo:r.hi])
	}
	s.settled = true
}

// sweep evaluates one kernel run.  A fault rewires a CompiledSim entry's
// nets but never changes its opcode, so a homogeneous run's loop needs no
// per-entry check.
func (s *CompiledSim) sweep(op csOp, ks []kOp) {
	v := s.vals
	switch op {
	case opState:
		for i := range ks {
			k := &ks[i]
			st := s.state[k.a]
			v[k.z] = st
			v[k.b] = !st
		}
	case opInv:
		for i := range ks {
			k := &ks[i]
			v[k.z] = !v[k.a]
		}
	case opBuf:
		for i := range ks {
			k := &ks[i]
			v[k.z] = v[k.a]
		}
	case opNand2:
		for i := range ks {
			k := &ks[i]
			v[k.z] = !(v[k.a] && v[k.b])
		}
	case opNor2:
		for i := range ks {
			k := &ks[i]
			v[k.z] = !(v[k.a] || v[k.b])
		}
	case opAnd2:
		for i := range ks {
			k := &ks[i]
			v[k.z] = v[k.a] && v[k.b]
		}
	case opOr2:
		for i := range ks {
			k := &ks[i]
			v[k.z] = v[k.a] || v[k.b]
		}
	case opXor2:
		for i := range ks {
			k := &ks[i]
			v[k.z] = v[k.a] != v[k.b]
		}
	case opXnor2:
		for i := range ks {
			k := &ks[i]
			v[k.z] = v[k.a] == v[k.b]
		}
	case opMux2:
		for i := range ks {
			k := &ks[i]
			if v[k.c] {
				v[k.z] = v[k.b]
			} else {
				v[k.z] = v[k.a]
			}
		}
	case opTie0:
		for i := range ks {
			v[ks[i].z] = false
		}
	case opTie1:
		for i := range ks {
			v[ks[i].z] = true
		}
	case opCustom:
		for i := range ks {
			s.evalCustom(ks[i].a, false)
		}
	default: // opMixed
		for i := range ks {
			k := &ks[i]
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
	}
}

// retrace is the selective-trace Settle: it evaluates the marked kernel
// entries in ascending (topological) order, and an entry that changes a
// net marks that net's readers.  Unmarked entries would recompute the
// values they already hold, so the result equals a full sweep.
func (s *CompiledSim) retrace() {
	v := s.vals
	for i := s.marks.next(); i >= 0; i = s.marks.next() {
		k := &s.kern[i]
		var z bool
		switch k.op {
		case opState:
			st := s.state[k.a]
			s.put(i, k.b, !st)
			z = st
		case opInv:
			z = !v[k.a]
		case opBuf:
			z = v[k.a]
		case opNand2:
			z = !(v[k.a] && v[k.b])
		case opNor2:
			z = !(v[k.a] || v[k.b])
		case opAnd2:
			z = v[k.a] && v[k.b]
		case opOr2:
			z = v[k.a] || v[k.b]
		case opXor2:
			z = v[k.a] != v[k.b]
		case opXnor2:
			z = v[k.a] == v[k.b]
		case opMux2:
			if v[k.c] {
				z = v[k.b]
			} else {
				z = v[k.a]
			}
		case opTie0:
			z = false
		case opTie1:
			z = true
		default:
			s.retraceCustom(i, k.a)
			continue
		}
		s.put(i, k.z, z)
	}
}

// put writes net n from kernel entry i, marking n's readers on a change.
func (s *CompiledSim) put(i int, n int32, x bool) {
	if s.vals[n] != x {
		s.vals[n] = x
		s.marks.readersAfter(s.p, n, i)
	}
}

// retraceCustom evaluates custom cell gi (kernel entry i) and marks the
// readers of every output it changed.
func (s *CompiledSim) retraceCustom(i int, gi int32) {
	g := &s.gates[gi]
	prev := s.prev[:0]
	for _, n := range g.out {
		prev = append(prev, n >= 0 && s.vals[n])
	}
	s.prev = prev
	s.evalCustom(gi, false)
	for oi, n := range g.out {
		if n >= 0 && s.vals[n] != prev[oi] {
			s.marks.readersAfter(s.p, n, i)
		}
	}
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

// capture runs one capture run of a clock-pure Tick.  A recompiled entry
// (opHold, after a fault on the gate's clock pin) fails the run's opcode
// check and captures through capture1.
func (s *CompiledSim) capture(op csOp, es []capEntry) {
	v := s.vals
	switch op {
	case opDFF, opLatch: // a pulsed latch enable passes D
		for i := range es {
			e := &es[i]
			if e.op != op {
				s.capture1(e)
				continue
			}
			s.state[e.g] = v[e.a]
		}
	case opSDFF:
		for i := range es {
			e := &es[i]
			if e.op != op {
				s.capture1(e)
				continue
			}
			if v[e.c] {
				s.state[e.g] = v[e.b]
			} else {
				s.state[e.g] = v[e.a]
			}
		}
	case opDFFR:
		for i := range es {
			e := &es[i]
			if e.op != op {
				s.capture1(e)
				continue
			}
			s.state[e.g] = v[e.a] && !v[e.b]
		}
	default: // opMixed, opCustom
		for i := range es {
			s.capture1(&es[i])
		}
	}
}

// capture1 captures one entry by its own opcode; an opHold gate keeps its
// bit.
func (s *CompiledSim) capture1(e *capEntry) {
	v := s.vals
	switch e.op {
	case opDFF, opLatch:
		s.state[e.g] = v[e.a]
	case opSDFF:
		if v[e.c] {
			s.state[e.g] = v[e.b]
		} else {
			s.state[e.g] = v[e.a]
		}
	case opDFFR:
		s.state[e.g] = v[e.a] && !v[e.b]
	case opCustom:
		s.state[e.g] = s.evalSeqNext(e.g, true)
	}
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
// high/low half-settles are provably no-ops and are skipped, and the
// capture walks the clock's capture list.
func (s *CompiledSim) TickID(ck int) {
	obsTicks.Add(1)
	if s.p.clockPure[ck] {
		// No gate reads a clock-pure net, so its level never moves a
		// settled value: dropping it leaves the machine settled.
		s.vals[ck] = false
		s.Settle()
		for _, r := range s.p.capRuns[s.p.capRunOff[ck]:s.p.capRunOff[ck+1]] {
			s.capture(r.op, s.capts[r.lo:r.hi])
		}
		s.unsettle()
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
	s.unsettle()
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
	s.unsettle()
	return nil
}

// Faults enumerates every injectable stuck-at site in deterministic order.
// The returned slice is shared; callers must not modify it.
func (s *CompiledSim) Faults() []SAFault { return s.p.faults() }

// faults builds the fault-site list on first use (only campaigns ask for
// it): both polarities of every pin connected in the pristine headers, in
// enumerateFaults order.  Clones and packed sims share the program, so the
// build is guarded by a sync.Once.
func (p *csProg) faults() []SAFault {
	p.sitesOnce.Do(func() {
		var sites []SAFault
		for i := range p.gates {
			g := &p.gates[i]
			for si, port := range g.cell.Inputs {
				if g.in[si] >= 0 {
					sites = append(sites, SAFault{Gate: g.name, Port: port}, SAFault{Gate: g.name, Port: port, Value: true})
				}
			}
			for oi, port := range g.cell.Outputs {
				if g.out[oi] >= 0 {
					sites = append(sites, SAFault{Gate: g.name, Port: port}, SAFault{Gate: g.name, Port: port, Value: true})
				}
			}
		}
		sortSites(sites)
		p.sites = sites
	})
	return p.sites
}

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
		s.unsettle()
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
		s.unsettle()
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
	s.unsettle()
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
	s.unsettle()
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
		capts:   s.p.capts,
		vals:    make([]bool, len(s.vals)),
		state:   make([]bool, len(s.state)),
		next:    make([]bool, len(s.next)),
		pre:     make([]bool, len(s.pre)),
		marks:   newTraceMarks(len(s.p.kern)),
		forces:  append([]cForce(nil), s.forces...),
		scratch: make(map[string]bool, 8),
		clkIDs:  make(map[string]int, 2),
	}
	if len(s.forces) > 0 {
		c.kern = append([]kOp(nil), s.kern...)
		c.ownKern = true
		c.capts = slices.Clone(s.capts)
		c.ownCapts = true
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
