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

// equivPollCycles is the ctx poll interval inside gate-level equivalence
// loops (a simulated cycle is microseconds on the big frame buffers, so
// this bounds cancel latency to low milliseconds).
const equivPollCycles = 4096

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

func busToInt(v []bool) int {
	n := 0
	for i, b := range v {
		if b {
			n |= 1 << uint(i)
		}
	}
	return n
}

// benchPins caches the compiled net ids of one verify bench, and the
// per-memory pin labels mismatch reports use, so the per-cycle compare
// loop formats nothing.
type benchPins struct {
	ck                                         int
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
		ck:   sim.NetID("ck"),
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

func getBusID(sim *netlist.CompiledSim, ids []int) int {
	v := 0
	for i, id := range ids {
		if sim.GetID(id) {
			v |= 1 << uint(i)
		}
	}
	return v
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
			cycles, ok := runBISTSession(ctx, sim, pins, alg, padded, bgsel, pbsel, analytic, &res, mmCap)
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

// runBISTSession drives one full March session on both machines.  It
// returns the gate-level cycle count and false if the session had to be
// abandoned (mismatch budget exhausted, DONE never seen, or ctx canceled —
// the caller distinguishes cancellation by checking ctx.Err() itself).
func runBISTSession(ctx context.Context, sim *netlist.CompiledSim, pins benchPins, alg march.Algorithm,
	mems []memory.Config, bgsel, pbsel bool, analytic int, res *EquivResult, mmCap int) (int, bool) {
	sim.Reset()
	ref := newRefBench(alg, mems)
	gmem := make([][]uint64, len(mems))
	for i, cfg := range mems {
		gmem[i] = make([]uint64, cfg.Words)
	}
	sim.Set("bgsel", bgsel)
	sim.Set("pbsel", pbsel)
	// Reset pulse on both machines.
	sim.Set("rst", true)
	sim.Set("en", false)
	sim.TickID(pins.ck)
	ref.tick(false, true, bgsel)
	sim.Set("rst", false)
	sim.Set("en", true)

	maxCycles := analytic + 8
	pollIn := equivPollCycles
	for cycle := 0; cycle < maxCycles; cycle++ {
		if pollIn--; pollIn <= 0 {
			pollIn = equivPollCycles
			if ctx.Err() != nil {
				return cycle, false
			}
		}
		sim.Settle()
		p := ref.comb(true, bgsel)
		// Feed the emulated RAMs from the netlist's own address pins; the
		// port not selected by pbsel carries complemented data so the
		// comparator's port mux is genuinely exercised.
		for i, cfg := range mems {
			gateAddr := getBusID(sim, pins.addr[i])
			word := gmem[i][gateAddr]
			inv := ^word & cfg.Mask()
			qa, qb := word, inv
			if pbsel && cfg.Kind == memory.TwoPort {
				qa, qb = inv, word
			}
			for b, id := range pins.q[i] {
				sim.SetID(id, qa>>uint(b)&1 == 1)
			}
			for b, id := range pins.qb[i] {
				sim.SetID(id, qb>>uint(b)&1 == 1)
			}
		}
		sim.Settle()
		res.check(cycle, "done", sim.GetID(pins.done), p.done, mmCap)
		res.check(cycle, "cmdr", sim.GetID(pins.cmdr), p.cmdr, mmCap)
		res.check(cycle, "cmdd", sim.GetID(pins.cmdd), p.cmdd, mmCap)
		res.check(cycle, "dir", sim.GetID(pins.dir), p.dir, mmCap)
		res.check(cycle, "adv", sim.GetID(pins.adv), p.adv, mmCap)
		res.check(cycle, "elemdone", sim.GetID(pins.elemdone), p.elemdone, mmCap)
		res.check(cycle, "fail", sim.GetID(pins.fail), p.fail, mmCap)
		for i := range mems {
			for b, id := range pins.addr[i] {
				res.check(cycle, pins.addrLbl[i][b],
					sim.GetID(id), p.addr[i]>>uint(b)&1 == 1, mmCap)
			}
			for b, id := range pins.d[i] {
				res.check(cycle, pins.dLbl[i][b],
					sim.GetID(id), p.d[i]>>uint(b)&1 == 1, mmCap)
			}
			res.check(cycle, pins.weLbl[i], sim.GetID(pins.we[i]), p.we[i], mmCap)
			res.check(cycle, pins.failLbl[i], sim.GetID(pins.failI[i]), p.failI[i], mmCap)
		}
		if len(res.Mismatches) >= mmCap {
			return cycle, false
		}
		if p.done && sim.GetID(pins.done) {
			// Session complete: the emulated RAM images must agree too.
			for i := range mems {
				for a := range gmem[i] {
					if gmem[i][a] != ref.tpgs[i].mem[a] {
						res.Notes = append(res.Notes, fmt.Sprintf(
							"mem %d addr %d: gate image %x vs ref %x", i, a, gmem[i][a], ref.tpgs[i].mem[a]))
						return cycle, false
					}
				}
			}
			return cycle, true
		}
		// Commit RAM writes from the gate-level pins, then clock both.
		for i := range mems {
			if sim.GetID(pins.we[i]) {
				gmem[i][getBusID(sim, pins.addr[i])] = uint64(getBusID(sim, pins.d[i]))
			}
		}
		sim.TickID(pins.ck)
		ref.tick(true, false, bgsel)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("DONE never asserted within %d cycles", maxCycles))
	return maxCycles, false
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
	pollIn := equivPollCycles
	for cycle := 0; cycle < cycles && len(res.Mismatches) < mmCap; cycle++ {
		if pollIn--; pollIn <= 0 {
			pollIn = equivPollCycles
			if ctx.Err() != nil {
				break
			}
		}
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
