package xcheck

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"steac/internal/bist"
	"steac/internal/march"
	"steac/internal/memory"
	"steac/internal/netlist"
)

// oracleSession is one BIST equivalence session run alone, the reference
// for the packed pass: the session's machine is lane 63 of its own sim,
// compared pin by pin against the reference model with net ids and labels
// resolved by name.  It returns the gate-level cycle
// count and false if the session was abandoned.
func oracleSession(sim *netlist.PackedSim, pins benchPins, alg march.Algorithm, mems []memory.Config,
	bgsel, pbsel bool, analytic int, res *EquivResult, mmCap int) (int, bool) {
	ref := newRefBench(alg, mems)
	ref.tick(false, true, bgsel)
	maxCycles := analytic + 8
	cycles, done := maxCycles, false
	lane := func(id int) bool { return sim.GetLaneID(id, goldenLane) }
	ram := newBenchRAM(mems)
	driveBIST(context.Background(), sim, pins, ram, bcast(bgsel), bcast(pbsel), ^uint64(0), func(cycle int) bool {
		p := ref.comb(true, bgsel)
		gdone := lane(sim.NetID("done"))
		res.check(cycle, "done", gdone, p.done, mmCap)
		for _, c := range []struct {
			pin  string
			want bool
		}{{"cmdr", p.cmdr}, {"cmdd", p.cmdd}, {"dir", p.dir}, {"adv", p.adv}, {"elemdone", p.elemdone}, {"fail", p.fail}} {
			res.check(cycle, c.pin, lane(sim.NetID(c.pin)), c.want, mmCap)
		}
		for i, cfg := range mems {
			for b, id := range sim.BusIDs(fmt.Sprintf("addr%d", i), cfg.AddrBits()) {
				res.check(cycle, fmt.Sprintf("addr%d[%d]", i, b), lane(id), p.addr[i]>>uint(b)&1 == 1, mmCap)
			}
			for b, id := range sim.BusIDs(fmt.Sprintf("d%d", i), cfg.Bits) {
				res.check(cycle, fmt.Sprintf("d%d[%d]", i, b), lane(id), p.d[i]>>uint(b)&1 == 1, mmCap)
			}
			res.check(cycle, fmt.Sprintf("we%d", i), lane(sim.NetID(fmt.Sprintf("we%d", i))), p.we[i], mmCap)
			res.check(cycle, fmt.Sprintf("fail%d", i), lane(sim.NetID(fmt.Sprintf("fail%d", i))), p.failI[i], mmCap)
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
		if len(res.Mismatches) < mmCap {
			res.Notes = append(res.Notes, fmt.Sprintf("DONE never asserted within %d cycles", maxCycles))
		}
		return cycles, false
	}
	for i := range mems {
		for a, want := range ref.tpgs[i].mem {
			if got := ram[i].word(a, goldenLane); got != want {
				res.Notes = append(res.Notes, fmt.Sprintf("mem %d addr %d: gate image %x vs ref %x", i, a, got, want))
				return cycles, false
			}
		}
	}
	return cycles, true
}

// oracleSessions runs the sessions one after another, session k on a fresh
// packed sim carrying faults[k] on lane 63, sharing the mismatch budget and
// stopping at the first abandoned session.
func oracleSessions(t *testing.T, base *netlist.CompiledSim, pins benchPins, alg march.Algorithm,
	mems []memory.Config, sessions []bistSession, faults [][]netlist.SAFault, analytic, mmCap int) EquivResult {
	t.Helper()
	var res EquivResult
	for k, ss := range sessions {
		ps, err := netlist.NewPackedSim(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range faults[k] {
			if err := ps.InjectLane(goldenLane, f.Gate, f.Port, f.Value); err != nil {
				t.Fatal(err)
			}
		}
		res.Sessions++
		label := fmt.Sprintf("bg=%v pb=%v", ss.bgsel, ss.pbsel)
		cycles, ok := oracleSession(ps, pins, alg, mems, ss.bgsel, ss.pbsel, analytic, &res, mmCap)
		if !ok {
			res.Notes = append(res.Notes, fmt.Sprintf("session %s aborted", label))
			break
		}
		res.Cycles += cycles
		if cycles != analytic {
			res.Notes = append(res.Notes, fmt.Sprintf("session %s ran %d cycles, analytic %d", label, cycles, analytic))
		}
	}
	return res
}

// The packed pass must merge its sessions into exactly the result the
// sequential sessions give, under stuck-at faults on the session lanes:
// mismatches and their order, the shared budget and the early abort, the
// DONE and RAM-image notes, checks and cycles.
func TestPackedBISTSessionsMatchSequentialUnderFaults(t *testing.T) {
	alg := mustAlg(t, "March C-")
	groups := []struct {
		name     string
		mems     []memory.Config
		sessions []bistSession
	}{
		{"single-port", []memory.Config{
			{Name: "m0", Words: 8, Bits: 2, Kind: memory.SinglePort},
			{Name: "m1", Words: 4, Bits: 1, Kind: memory.SinglePort}},
			[]bistSession{{}, {bgsel: true}}},
		{"two-port", []memory.Config{
			{Name: "m0", Words: 8, Bits: 3, Kind: memory.TwoPort},
			{Name: "m1", Words: 4, Bits: 2, Kind: memory.SinglePort}},
			[]bistSession{{}, {pbsel: true}, {bgsel: true}, {bgsel: true, pbsel: true}}},
	}
	seen := map[string]int{}
	for _, g := range groups {
		mems := PadConfigs(g.mems)
		d, err := bist.BuildVerifyBench(alg, mems)
		if err != nil {
			t.Fatal(err)
		}
		base, err := netlist.NewCompiledSim(d, "bench")
		if err != nil {
			t.Fatal(err)
		}
		pins := newBenchPins(base, mems)
		analytic := alg.Complexity() * mems[0].Words
		sites := base.Faults()
		rng := rand.New(rand.NewSource(int64(len(g.sessions))))
		var rounds [][][]netlist.SAFault
		for round := 0; round < 40; round++ {
			// Each session lane gets no fault, one or two, so clean and
			// faulty sessions mix in every order.
			faults := make([][]netlist.SAFault, len(g.sessions))
			for k := range faults {
				for n := rng.Intn(3); n > 0; n-- {
					faults[k] = append(faults[k], sites[rng.Intn(len(sites))])
				}
			}
			rounds = append(rounds, faults)
		}
		// DONE stuck low on one session lane: the lane diverges only in
		// the eight cycles past the analytic length, so under the largest
		// budget the session ends at maxCycles.
		gate, port, ok := driverOf(d, "bench", "done", "")
		if !ok {
			t.Fatal("no driver for done")
		}
		for k := range g.sessions {
			faults := make([][]netlist.SAFault, len(g.sessions))
			faults[k] = []netlist.SAFault{{Gate: gate, Port: port}}
			rounds = append(rounds, faults)
		}
		for round, faults := range rounds {
			// The last budget outlasts most faulty sessions, so their
			// mismatches accumulate across sessions.
			for _, mmCap := range []int{1, 3, 10, 500} {
				ps, err := netlist.NewPackedSim(base)
				if err != nil {
					t.Fatal(err)
				}
				for k, fs := range faults {
					for _, f := range fs {
						if err := ps.InjectLane(goldenLane-k, f.Gate, f.Port, f.Value); err != nil {
							t.Fatal(err)
						}
					}
				}
				var got EquivResult
				verifyBISTSessions(context.Background(), ps, pins, alg, mems, g.sessions, analytic, &got, mmCap)
				want := oracleSessions(t, base, pins, alg, mems, g.sessions, faults, analytic, mmCap)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s round %d cap %d faults %v:\npacked     %+v\nsequential %+v", g.name, round, mmCap, faults, got, want)
				}
				switch {
				case len(got.Notes) == 0:
					seen["pass"]++
				case len(got.Mismatches) >= mmCap:
					seen["budget"]++
				default:
					seen[strings.Fields(got.Notes[0])[0]]++ // "DONE", "mem" or "session"
				}
			}
		}
	}
	for _, kind := range []string{"pass", "budget", "DONE", "mem"} {
		if seen[kind] == 0 {
			t.Errorf("no round ended as %q (outcomes %v)", kind, seen)
		}
	}
}
