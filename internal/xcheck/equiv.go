package xcheck

import (
	"context"
	"fmt"
	"math/rand"

	"steac/internal/bist"
	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
)

// equivPollCycles is the ctx poll interval inside gate-level simulation
// loops (a simulated cycle is microseconds on the big frame buffers, so
// this bounds cancel latency to low milliseconds).
const equivPollCycles = 4096

// pollEvery returns a per-cycle check that reports whether ctx has fired,
// reading ctx only on every equivPollCycles-th call.
func pollEvery(ctx context.Context) func() bool {
	n := 0
	return func() bool {
		if n++; n < equivPollCycles {
			return false
		}
		n = 0
		return ctx.Err() != nil
	}
}

// PadConfig rounds a memory geometry up to the generated TPG's natural
// power-of-two address space (what the memory compiler fabricates); the
// returned config is what verify benches and campaigns run on.
func PadConfig(cfg memory.Config) memory.Config {
	cfg.Words = 1 << uint(cfg.AddrBits())
	return cfg
}

// PadConfigs pads a whole group.
func PadConfigs(mems []memory.Config) []memory.Config {
	out := make([]memory.Config, len(mems))
	for i, cfg := range mems {
		out[i] = PadConfig(cfg)
	}
	return out
}

// benchPins caches the compiled net ids of one verify bench, and the
// per-memory pin labels mismatch reports use, so the per-cycle compare
// loop formats nothing.
type benchPins struct {
	ck, rst, en, bgsel, pbsel                  int
	cmdr, cmdd, dir, adv, elemdone, done, fail int
	addr, d, q, qb                             [][]int
	we, failI                                  []int
	addrLbl, dLbl                              [][]string
	weLbl, failLbl                             []string
}

// bitLabels returns name[0] .. name[n-1].
func bitLabels(name string, n int) []string {
	lbl := make([]string, n)
	for b := range lbl {
		lbl[b] = fmt.Sprintf("%s[%d]", name, b)
	}
	return lbl
}

func newBenchPins(sim *netlist.CompiledSim, mems []memory.Config) benchPins {
	p := benchPins{
		ck: sim.NetID("ck"), rst: sim.NetID("rst"), en: sim.NetID("en"),
		bgsel: sim.NetID("bgsel"), pbsel: sim.NetID("pbsel"),
		cmdr: sim.NetID("cmdr"), cmdd: sim.NetID("cmdd"), dir: sim.NetID("dir"),
		adv: sim.NetID("adv"), elemdone: sim.NetID("elemdone"),
		done: sim.NetID("done"), fail: sim.NetID("fail"),
	}
	for i, cfg := range mems {
		addr, d := fmt.Sprintf("addr%d", i), fmt.Sprintf("d%d", i)
		we, fail := fmt.Sprintf("we%d", i), fmt.Sprintf("fail%d", i)
		p.addr = append(p.addr, sim.BusIDs(addr, cfg.AddrBits()))
		p.d = append(p.d, sim.BusIDs(d, cfg.Bits))
		p.q = append(p.q, sim.BusIDs(fmt.Sprintf("q%d", i), cfg.Bits))
		if cfg.Kind == memory.TwoPort {
			p.qb = append(p.qb, sim.BusIDs(fmt.Sprintf("qb%d", i), cfg.Bits))
		} else {
			p.qb = append(p.qb, nil)
		}
		p.we = append(p.we, sim.NetID(we))
		p.failI = append(p.failI, sim.NetID(fail))
		p.addrLbl = append(p.addrLbl, bitLabels(addr, cfg.AddrBits()))
		p.dLbl = append(p.dLbl, bitLabels(d, cfg.Bits))
		p.weLbl = append(p.weLbl, we)
		p.failLbl = append(p.failLbl, fail)
	}
	return p
}

// ctlPins caches a compiled shared controller's net ids, resolved once per
// session: the tester pins and the per-group GO/GDONE/GFAIL buses.
type ctlPins struct {
	mbs, mbr, msi, mbc int
	mbo, mrd, mso      int
	gos, gdone, gfail  []int
}

func newCtlPins(sim *netlist.CompiledSim, nGroups int) ctlPins {
	return ctlPins{
		mbs: sim.NetID(bist.PinMBS), mbr: sim.NetID(bist.PinMBR),
		msi: sim.NetID(bist.PinMSI), mbc: sim.NetID(bist.PinMBC),
		mbo: sim.NetID(bist.PinMBO), mrd: sim.NetID(bist.PinMRD), mso: sim.NetID(bist.PinMSO),
		gos:   sim.BusIDs("GO", nGroups),
		gdone: sim.BusIDs("GDONE", nGroups),
		gfail: sim.BusIDs("GFAIL", nGroups),
	}
}

// driveBIST is the verify bench's one drive protocol: a reset pulse, then
// a March session with emulated RAMs answering from each lane's own
// address, data and write pins.  bgsel and pbsel select the data
// background and the comparator port.  With complement, a two-port
// memory's port that pbsel does not select reads the complemented word, so
// a port-select defect cannot hide (equivalence); without it both ports
// read the same word (fault campaigns).  Each cycle, once the RAM reads
// have settled, observe sees the cycle; returning false ends the session
// before that cycle's RAM writes and clock edge.  ctx is polled every
// equivPollCycles cycles and a cancel ends the session (callers check
// ctx.Err() themselves).  The RAMs are returned for end-of-session checks.
func driveBIST(ctx context.Context, e engine, pins benchPins, mems []memory.Config,
	bgsel, pbsel, complement bool, observe func(cycle int) bool) []pbench {
	ram := make([]pbench, len(mems))
	for i, cfg := range mems {
		ram[i] = newPbench(cfg.Words, cfg.Bits, cfg.AddrBits())
	}
	e.Reset()
	e.SetID(pins.bgsel, bgsel)
	e.SetID(pins.pbsel, pbsel)
	e.SetID(pins.rst, true)
	e.SetID(pins.en, false)
	e.TickID(pins.ck)
	e.SetID(pins.rst, false)
	e.SetID(pins.en, true)
	// One settle propagates the enable; after that the state is settled at
	// the top of every cycle (a tick ends with a settle), so each cycle
	// needs only the post-RAM-read settle.
	e.Settle()

	canceled := pollEvery(ctx)
	for cycle := 0; !canceled(); cycle++ {
		for i := range mems {
			m := &ram[i]
			m.latch(e, pins.addr[i])
			qb := pins.qb[i]
			var invA, invB uint64 // per-port complement masks
			if complement && qb != nil {
				if pbsel {
					invA = ^uint64(0)
				} else {
					invB = ^uint64(0)
				}
			}
			for b, id := range pins.q[i] {
				w := m.read(b)
				e.SetWordID(id, w^invA)
				if qb != nil {
					e.SetWordID(qb[b], w^invB)
				}
			}
		}
		e.Settle()
		if !observe(cycle) {
			return ram
		}
		for i := range mems {
			we := e.GetWordID(pins.we[i])
			if we == 0 {
				continue
			}
			m := &ram[i]
			m.latch(e, pins.addr[i])
			for b, id := range pins.d[i] {
				m.write(b, we, e.GetWordID(id))
			}
		}
		e.TickID(pins.ck)
	}
	return ram
}

// VerifyBISTContext proves one sequencer group's generated netlist (sequencer +
// TPGs + enable gating, via bist.BuildVerifyBench) bit-identical to the
// March-semantics reference over complete sessions: every output pin, every
// cycle, for the solid and checkerboard backgrounds and (for two-port
// groups) both comparator port selections.  The RAM macros are emulated
// behaviourally and respond to the netlist's own address/data/write pins;
// the port not under comparison is fed complemented data so a port-select
// defect cannot hide.  Session lengths are additionally cross-checked
// against the behavioural bist.Engine and the analytic formula.
//
// The session loop polls ctx every equivPollCycles gate-level cycles and between sessions, and a
// canceled check returns ctx.Err() wrapped with the stage name.
func VerifyBISTContext(ctx context.Context, name string, alg march.Algorithm, mems []memory.Config, opts Options) (EquivResult, error) {
	tm := obsSpanVerify.Start()
	defer tm.Stop()
	res := EquivResult{Name: name}
	if err := alg.Validate(); err != nil {
		return res, err
	}
	padded := PadConfigs(mems)
	maxWords := 0
	anyTwoPort := false
	for _, cfg := range padded {
		if cfg.Words > maxWords {
			maxWords = cfg.Words
		}
		if cfg.Kind == memory.TwoPort {
			anyTwoPort = true
		}
	}
	analytic := alg.Complexity() * maxWords

	d, err := bist.BuildVerifyBench(alg, padded)
	if err != nil {
		return res, err
	}
	sim, err := netlist.NewCompiledSim(d, "bench")
	if err != nil {
		return res, err
	}
	res.Gates = sim.GateCount()
	pins := newBenchPins(sim, padded)
	mmCap := opts.maxMismatches()
	// The sessions run on the packed engine, compared on lane 63: under
	// the shared lane-word driver it is faster than the scalar engine,
	// which stays the reference VerifyPackedScalar checks campaigns against.
	ps, err := netlist.NewPackedSim(sim)
	if err != nil {
		return res, err
	}

	// Behavioural-engine cross-check: the padded group must pass fault-free
	// in exactly the analytic cycle count.
	ram := make([]bist.MemoryUnderTest, len(padded))
	for i, cfg := range padded {
		m, err := memory.New(cfg)
		if err != nil {
			return res, err
		}
		ram[i] = bist.MemoryUnderTest{RAM: m}
	}
	group := bist.Group{Name: name, Alg: alg, Mems: ram}
	if g := group.Cycles(); g != analytic {
		res.Notes = append(res.Notes,
			fmt.Sprintf("engine group formula %d cycles vs analytic %d", g, analytic))
	}
	eng, err := bist.NewEngine([]bist.Group{group}, bist.Serial)
	if err != nil {
		return res, err
	}
	er, err := eng.RunContext(ctx)
	if err != nil {
		return res, fmt.Errorf("xcheck: verify %s: %w", name, err)
	}
	if !er.Pass || er.Cycles != analytic {
		res.Notes = append(res.Notes,
			fmt.Sprintf("engine run pass=%v cycles=%d vs analytic %d", er.Pass, er.Cycles, analytic))
	}

	pbsels := []bool{false}
	if anyTwoPort {
		pbsels = append(pbsels, true)
	}
	for _, bgsel := range []bool{false, true} {
		for _, pbsel := range pbsels {
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("xcheck: verify %s: %w", name, err)
			}
			res.Sessions++
			label := fmt.Sprintf("bg=%v pb=%v", bgsel, pbsel)
			cycles, ok := verifyBISTSession(ctx, ps, pins, alg, padded, bgsel, pbsel, analytic, &res, mmCap)
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("xcheck: verify %s: %w", name, err)
			}
			if !ok {
				res.Notes = append(res.Notes, fmt.Sprintf("session %s aborted", label))
				res.finish()
				return res, nil
			}
			res.Cycles += cycles
			if cycles != analytic {
				res.Notes = append(res.Notes,
					fmt.Sprintf("session %s ran %d cycles, analytic %d", label, cycles, analytic))
			}
		}
	}
	res.finish()
	return res, nil
}

// verifyBISTSession drives one full March session (driveBIST, unselected
// port complemented) on sim in lockstep with the reference, comparing
// every pin of lane 63 each cycle.  It returns the gate-level cycle count
// and false if the session had to be abandoned (mismatch budget
// exhausted, DONE never seen, or ctx canceled — the caller distinguishes
// cancellation by checking ctx.Err() itself).
func verifyBISTSession(ctx context.Context, sim *netlist.PackedSim, pins benchPins, alg march.Algorithm,
	mems []memory.Config, bgsel, pbsel bool, analytic int, res *EquivResult, mmCap int) (int, bool) {
	ref := newRefBench(alg, mems)
	ref.tick(false, true, bgsel) // the reset pulse driveBIST applies
	maxCycles := analytic + 8
	cycles, done := maxCycles, false
	ram := driveBIST(ctx, sim, pins, mems, bgsel, pbsel, true, func(cycle int) bool {
		p := ref.comb(true, bgsel)
		gdone := sim.GetLaneID(pins.done, goldenLane)
		res.check(cycle, "done", gdone, p.done, mmCap)
		res.check(cycle, "cmdr", sim.GetLaneID(pins.cmdr, goldenLane), p.cmdr, mmCap)
		res.check(cycle, "cmdd", sim.GetLaneID(pins.cmdd, goldenLane), p.cmdd, mmCap)
		res.check(cycle, "dir", sim.GetLaneID(pins.dir, goldenLane), p.dir, mmCap)
		res.check(cycle, "adv", sim.GetLaneID(pins.adv, goldenLane), p.adv, mmCap)
		res.check(cycle, "elemdone", sim.GetLaneID(pins.elemdone, goldenLane), p.elemdone, mmCap)
		res.check(cycle, "fail", sim.GetLaneID(pins.fail, goldenLane), p.fail, mmCap)
		for i := range mems {
			for b, id := range pins.addr[i] {
				res.check(cycle, pins.addrLbl[i][b], sim.GetLaneID(id, goldenLane), p.addr[i]>>uint(b)&1 == 1, mmCap)
			}
			for b, id := range pins.d[i] {
				res.check(cycle, pins.dLbl[i][b], sim.GetLaneID(id, goldenLane), p.d[i]>>uint(b)&1 == 1, mmCap)
			}
			res.check(cycle, pins.weLbl[i], sim.GetLaneID(pins.we[i], goldenLane), p.we[i], mmCap)
			res.check(cycle, pins.failLbl[i], sim.GetLaneID(pins.failI[i], goldenLane), p.failI[i], mmCap)
		}
		if len(res.Mismatches) >= mmCap {
			cycles = cycle
			return false
		}
		if p.done && gdone {
			cycles, done = cycle, true
			return false
		}
		if cycle == maxCycles-1 {
			return false
		}
		ref.tick(true, false, bgsel)
		return true
	})
	if !done {
		if ctx.Err() == nil && len(res.Mismatches) < mmCap {
			res.Notes = append(res.Notes, fmt.Sprintf("DONE never asserted within %d cycles", maxCycles))
		}
		return cycles, false
	}
	// Session complete: the emulated RAM images must agree too.
	for i := range mems {
		for a, want := range ref.tpgs[i].mem {
			if got := ram[i].word(a, goldenLane); got != want {
				res.Notes = append(res.Notes, fmt.Sprintf(
					"mem %d addr %d: gate image %x vs ref %x", i, a, got, want))
				return cycles, false
			}
		}
	}
	return cycles, true
}

// VerifyControllerContext proves the generated shared controller bit-identical to
// the Fig. 2 handshake reference, first under seeded random stimulus on
// every input (GDONE/GFAIL patterns a real chip could never even produce),
// then in a scripted session where behavioural groups respond to the
// controller's own GO outputs and selected groups inject failures.
//
// The random stimulus loop polls ctx every equivPollCycles cycles, and a canceled
// check returns ctx.Err() wrapped with the stage name.
func VerifyControllerContext(ctx context.Context, name string, nGroups int, opts Options) (EquivResult, error) {
	tm := obsSpanVerify.Start()
	defer tm.Stop()
	d := netlist.NewDesign("xctl", nil)
	if _, err := bist.GenerateController(d, "ctl", nGroups); err != nil {
		return EquivResult{Name: name}, err
	}
	sim, err := netlist.NewCompiledSim(d, "ctl")
	if err != nil {
		return EquivResult{Name: name}, err
	}
	return verifyController(ctx, name, sim, nGroups, opts)
}

// verifyController runs both controller phases on a compiled controller.
func verifyController(ctx context.Context, name string, sim *netlist.CompiledSim, nGroups int, opts Options) (EquivResult, error) {
	res := EquivResult{Name: name, Gates: sim.GateCount()}
	mmCap := opts.maxMismatches()
	pins := newCtlPins(sim, nGroups)
	goLbl := bitLabels("GO", nGroups)

	compare := func(cycle int, ref *refController, msi bool) {
		p := ref.comb(msi)
		res.check(cycle, bist.PinMBO, sim.GetID(pins.mbo), p.mbo, mmCap)
		res.check(cycle, bist.PinMRD, sim.GetID(pins.mrd), p.mrd, mmCap)
		res.check(cycle, bist.PinMSO, sim.GetID(pins.mso), p.mso, mmCap)
		for i, id := range pins.gos {
			res.check(cycle, goLbl[i], sim.GetID(id), p.gos[i], mmCap)
		}
	}

	// Phase 1: random stimulus differential.
	sim.Reset()
	ref := newRefController(nGroups)
	rng := rand.New(rand.NewSource(int64(0x5eed + nGroups)))
	cycles := 200*nGroups + 500
	gdone := make([]bool, nGroups)
	gfail := make([]bool, nGroups)
	res.Sessions++
	canceled := pollEvery(ctx)
	for cycle := 0; cycle < cycles && len(res.Mismatches) < mmCap && !canceled(); cycle++ {
		mbs := rng.Intn(20) == 0
		mbr := rng.Intn(50) == 0
		msi := rng.Intn(2) == 0
		sim.SetID(pins.mbs, mbs)
		sim.SetID(pins.mbr, mbr)
		sim.SetID(pins.msi, msi)
		for i := 0; i < nGroups; i++ {
			gdone[i] = rng.Intn(5) == 0
			gfail[i] = rng.Intn(10) == 0
			sim.SetID(pins.gdone[i], gdone[i])
			sim.SetID(pins.gfail[i], gfail[i])
		}
		sim.Settle()
		compare(cycle, ref, msi)
		sim.TickID(pins.mbc)
		ref.tick(mbs, mbr, msi, gdone, gfail)
		res.Cycles++
	}

	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("xcheck: verify %s: %w", name, err)
	}

	// Phase 2: scripted session — groups acknowledge GO after a compressed
	// per-group latency; one mid-list group reports a failure.
	if len(res.Mismatches) < mmCap {
		res.Sessions++
		cyc, notes := runControllerSession(sim, ref, nGroups, pins,
			func(cycle int, msi bool) { compare(cycle, ref, msi) })
		res.Cycles += cyc
		res.Notes = append(res.Notes, notes...)
	}
	res.finish()
	return res, nil
}

// runControllerSession resets both machines and runs a full session with
// behavioural groups responding to the controller's GO outputs.  Group i
// asserts GDONE after 3+(i%4) active cycles; the middle group pulses GFAIL.
// It asserts the tester-visible outcome (MBO raised, MRD reporting the
// injected failure, MSO readout of the failed flag) and returns any
// violations as notes.
func runControllerSession(sim *netlist.CompiledSim, ref *refController, nGroups int,
	pins ctlPins, compare func(cycle int, msi bool)) (int, []string) {
	var notes []string
	failing := nGroups / 2
	sim.Reset()
	*ref = *newRefController(nGroups)

	zero := make([]bool, nGroups)
	drive := func(mbs, mbr bool, gdone, gfail []bool) {
		sim.SetID(pins.mbs, mbs)
		sim.SetID(pins.mbr, mbr)
		sim.SetID(pins.msi, true)
		for i := 0; i < nGroups; i++ {
			sim.SetID(pins.gdone[i], gdone[i])
			sim.SetID(pins.gfail[i], gfail[i])
		}
	}
	step := func(mbs, mbr bool, gdone, gfail []bool) {
		drive(mbs, mbr, gdone, gfail)
		sim.TickID(pins.mbc)
		ref.tick(mbs, mbr, true, gdone, gfail)
	}
	step(false, true, zero, zero) // reset
	step(true, false, zero, zero) // start

	age := make([]int, nGroups)
	gdone := make([]bool, nGroups)
	gfail := make([]bool, nGroups)
	started := make([]bool, nGroups)
	cycle := 0
	maxCycles := 16 * nGroups
	for ; cycle < maxCycles; cycle++ {
		drive(false, false, gdone, gfail)
		sim.Settle()
		if sim.GetID(pins.mbo) {
			break
		}
		for i := 0; i < nGroups; i++ {
			gdone[i], gfail[i] = false, false
			if sim.GetID(pins.gos[i]) {
				if !started[i] {
					started[i] = true
					// Groups must start in index order.
					for j := i + 1; j < nGroups; j++ {
						if started[j] {
							notes = append(notes, fmt.Sprintf("group %d started before %d", j, i))
						}
					}
				}
				age[i]++
				gdone[i] = age[i] >= 3+i%4
				gfail[i] = i == failing && age[i] == 2
			}
		}
		drive(false, false, gdone, gfail)
		sim.Settle()
		compare(cycle, true)
		sim.TickID(pins.mbc)
		ref.tick(false, false, true, gdone, gfail)
	}
	sim.Settle()
	if !sim.GetID(pins.mbo) {
		notes = append(notes, fmt.Sprintf("MBO not raised within %d cycles", maxCycles))
	}
	if sim.GetID(pins.mrd) {
		notes = append(notes, fmt.Sprintf("MRD reports pass despite group %d failure", failing))
	}
	for i, s := range started {
		if !s {
			notes = append(notes, fmt.Sprintf("group %d never granted GO", i))
		}
	}
	return cycle, notes
}
