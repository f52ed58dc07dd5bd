package xcheck

import (
	"context"
	"math/bits"

	"steac/internal/netlist"
)

// engine is the lane-word view both gate-level simulators give, and the
// one every bench driver is written against.  A PackedSim carries 64
// circuit copies, one per bit; a CompiledSim carries one, reads back as
// that bit broadcast to every lane and writes from lane Lanes-1.  So a
// driver computes per-lane stimulus once, and on the scalar engine every
// lane-word is 0 or all ones.
type engine interface {
	SetID(id int, v bool) // broadcast to every lane
	SetWordID(id int, w uint64)
	GetWordID(id int) uint64
	TickID(ck int)
	Settle()
	Reset()
}

// goldenLane is the fault-free lane: lanes 0..62 carry fault copies in a
// packed campaign, and equivalence checks compare this lane against the
// behavioural reference.
const goldenLane = netlist.Lanes - 1

// PackedBatch is the number of faults one packed pass simulates: lanes
// 0..62 carry fault copies, lane 63 is reserved for the fault-free machine
// (the golden-bit convention — detection is (word ^ golden) != 0).
const PackedBatch = netlist.Lanes - 1

// goldenBit returns a lane-word's golden-lane bit.
func goldenBit(w uint64) bool { return int64(w) < 0 }

// bcast broadcasts one golden-trace bit to every lane.
func bcast(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// laneBusVal assembles one lane's integer value from bus lane-words.
func laneBusVal(ws []uint64, lane int) int {
	v := 0
	for i, w := range ws {
		v |= int(w>>uint(lane)&1) << uint(i)
	}
	return v
}

// undetected returns a per-lane detection vector with every lane silent.
func undetected() []int {
	det := make([]int, netlist.Lanes)
	for i := range det {
		det[i] = -1
	}
	return det
}

// markDiff records newly-divergent lanes at cycle and prunes them from
// pending; it returns the updated pending mask.
func markDiff(det []int, diff, pending uint64, cycle int) uint64 {
	hits := diff & pending
	for h := hits; h != 0; h &= h - 1 {
		det[bits.TrailingZeros64(h)] = cycle
	}
	return pending &^ hits
}

// goldenTrace is a campaign's fault-free record of its observed pins: one
// row of len(ids) bits per cycle.
type goldenTrace struct {
	ids  []int
	bits []bool
}

// cycles returns the recorded trace length.
func (g *goldenTrace) cycles() int { return len(g.bits) / len(g.ids) }

// record appends the fault-free machine's current pin values as the next
// cycle.
func (g *goldenTrace) record(sim *netlist.CompiledSim) {
	for _, id := range g.ids {
		g.bits = append(g.bits, sim.GetID(id))
	}
}

// compare returns a campaign run over a bench driver: every cycle the
// driver observes, each pending lane's pins are compared against the
// recorded row, and the run ends at the end of the trace or once every
// pending lane has diverged (a detected lane's result can no longer
// change, and lanes are independent).
func (g *goldenTrace) compare(drive benchDriver) campaignRun {
	return func(ctx context.Context, e engine, pending uint64) []int {
		det := undetected()
		last := g.cycles() - 1
		drive(ctx, e, func(cycle int) bool {
			row := g.bits[cycle*len(g.ids):]
			var diff uint64
			for k, id := range g.ids {
				diff |= e.GetWordID(id) ^ bcast(row[k])
			}
			pending = markDiff(det, diff, pending, cycle)
			return cycle < last && pending != 0
		})
		return det
	}
}

// pbench emulates the RAMs of a BIST verify bench for every lane at once:
// one bit-plane lane-word per (address, data bit), read and written as one
// whole-word operation at the golden lane's address, patched per lane only
// where a fault has corrupted that lane's address stream.  On the scalar
// engine every lane shares the golden address and the planes stay
// broadcast.
type pbench struct {
	nb    int      // data bits
	plane []uint64 // [addr*nb + b] lane-words
	addrW []uint64 // the latched address bus lane-words
	addrs []int    // per-lane decoded addresses of the lanes in diff
	a     int      // the golden lane's address
	diff  uint64   // lanes whose address differs from the golden lane's
}

func newPbench(words, nb, addrBits int) pbench {
	return pbench{
		nb:    nb,
		plane: make([]uint64, words*nb),
		addrW: make([]uint64, addrBits),
		addrs: make([]int, netlist.Lanes),
	}
}

// latch reads the address bus and decodes the golden lane's address and
// those of the lanes that diverge from it.  With one fault per lane the
// diverged lanes are those whose address stream a fault has corrupted:
// typically none, and a handful at worst, so RAM access is a whole-word
// operation at the golden address patched per diverged lane, never a
// 64-lane gather.
func (m *pbench) latch(e engine, ids []int) {
	m.a, m.diff = 0, 0
	for i, id := range ids {
		w := e.GetWordID(id)
		m.addrW[i] = w
		m.a |= int(w>>goldenLane) << uint(i)
		m.diff |= w ^ uint64(int64(w)>>63)
	}
	for d := m.diff; d != 0; d &= d - 1 {
		l := bits.TrailingZeros64(d)
		m.addrs[l] = laneBusVal(m.addrW, l)
	}
}

// read returns data bit b as every lane reads it at its latched address.
func (m *pbench) read(b int) uint64 {
	w := m.plane[m.a*m.nb+b]
	for d := m.diff; d != 0; d &= d - 1 {
		l := bits.TrailingZeros64(d)
		bit := uint64(1) << uint(l)
		w = (w &^ bit) | (m.plane[m.addrs[l]*m.nb+b] & bit)
	}
	return w
}

// write stores data bit b from dW for the lanes in we, each at its latched
// address.  Lanes on the golden address write as one word; each diverged
// lane writes its own bit (bit positions are disjoint, so the order is
// irrelevant).
func (m *pbench) write(b int, we, dW uint64) {
	if base := we &^ m.diff; base != 0 {
		p := &m.plane[m.a*m.nb+b]
		*p = (*p &^ base) | (dW & base)
	}
	for d := m.diff & we; d != 0; d &= d - 1 {
		l := bits.TrailingZeros64(d)
		bit := uint64(1) << uint(l)
		p := &m.plane[m.addrs[l]*m.nb+b]
		*p = (*p &^ bit) | (dW & bit)
	}
}

// word assembles the word one lane holds at address a.
func (m *pbench) word(a, lane int) uint64 {
	var v uint64
	for b := 0; b < m.nb; b++ {
		v |= (m.plane[a*m.nb+b] >> uint(lane) & 1) << uint(b)
	}
	return v
}
