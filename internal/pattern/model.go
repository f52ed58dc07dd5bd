// Package pattern implements the test-pattern side of STEAC (Fig. 1): core
// models standing in for the cores' logic, a synthetic ATPG that generates
// cycle-based core-level patterns exactly as a commercial tool hands them to
// STEAC, and the pattern translators that lift core-level patterns to the
// wrapper level and then to the chip level, where an external ATE (package
// ate) can apply them.
//
// The substitution at work (paper used real cores + commercial ATPG): every
// property the translation flow depends on — chain structure, pattern
// counts, load/unload ordering, capture semantics — is preserved; only the
// logic function inside each core is synthetic (a seeded mixing function).
// Because the ATPG substitute and the chip model share the same core model,
// a correct translator yields zero mismatches on the tester, and any
// injected defect or translation bug yields nonzero mismatches.
package pattern

import (
	"math/bits"

	"steac/internal/testinfo"
)

// Bit is a three-valued test bit: 0, 1, or X (don't care / don't compare).
type Bit byte

// Bit values.
const (
	B0 Bit = 0
	B1 Bit = 1
	BX Bit = 2
)

// FromBool converts a logic level to a Bit.
func FromBool(v bool) Bit {
	if v {
		return B1
	}
	return B0
}

// Bool returns the logic level of a non-X bit (X reads as 0).
func (b Bit) Bool() bool { return b == B1 }

// splitmix64 is the keyed mixing primitive behind every synthetic model:
// deterministic, seedable, well distributed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// CoreModel is the synthetic logic function of one core.  For scan cores it
// defines the capture behaviour (next scan state and PO values from the
// current scan state and PI values); for functional cores it defines a
// seeded Mealy machine stepped once per functional pattern.
//
// Everything the seed determines — the capture tap tables and the
// functional machine's per-PI mixing keys — is derived once, when the
// model is built, so a model is only ever made by NewCoreModel or
// Reseeded and never copied and edited.
type CoreModel struct {
	Core *testinfo.Core

	seed      uint64
	stateBits int
	next, po  []tap    // capture taps per next-state bit and per PO bit
	piKeys    []uint64 // FuncStep's mixing key per PI
}

// tap is TapSpec in table form.
type tap struct {
	state, pi   int32
	invert, xor bool
}

// NewCoreModel builds the model; the seed comes from the core's pattern-set
// seeds so the ATPG substitute and the chip model always agree.
func NewCoreModel(core *testinfo.Core) *CoreModel {
	var seed uint64 = 0x5eed
	for _, p := range core.Patterns {
		seed = splitmix64(seed ^ uint64(p.Seed))
	}
	return newCoreModel(core, seed)
}

// Reseeded returns the model of the same core under another seed: a core
// whose logic differs (how a manufacturing defect is injected).  Its
// tables are derived afresh from the new seed.
func (m *CoreModel) Reseeded(seed uint64) *CoreModel { return newCoreModel(m.Core, seed) }

func newCoreModel(core *testinfo.Core, seed uint64) *CoreModel {
	m := &CoreModel{Core: core, seed: seed, stateBits: core.TotalScanBits()}
	m.next = make([]tap, m.stateBits)
	for i := range m.next {
		m.next[i] = m.nextSpec(i).tap()
	}
	m.po = make([]tap, core.POs)
	for j := range m.po {
		m.po[j] = m.poSpec(j).tap()
	}
	m.piKeys = make([]uint64, core.PIs)
	for i := range m.piKeys {
		m.piKeys[i] = splitmix64(seed ^ 0xB0000 ^ uint64(i))
	}
	return m
}

// Seed returns the seed the model's logic derives from.
func (m *CoreModel) Seed() uint64 { return m.seed }

// StateBits returns the scan state width (concatenation of the core's scan
// chains in declaration order).
func (m *CoreModel) StateBits() int { return m.stateBits }

// TapSpec pins down the exact gate structure of one synthetic capture bit:
// which state bit and which PI feed it, and the two keyed constants.  A
// next-state bit computes
//
//	next[i] = Invert ⊕ state[StateTap] ⊕ pi[PITap]
//
// and a PO bit computes
//
//	po[j] = Invert ⊕ state[StateTap] ⊕ (PIXor ∧ pi[PITap]) ⊕ (state[StateTap] ∧ pi[PITap])
//
// with absent taps (index -1, when the core has no state or no PIs) reading
// as constant 0.  Capture and BuildStructuralCore both derive from these
// specs, so the behavioural model and the generated netlist share one
// definition of the core's logic.
type TapSpec struct {
	StateTap int
	PITap    int
	Invert   bool
	PIXor    bool
}

func (sp TapSpec) tap() tap {
	return tap{state: int32(sp.StateTap), pi: int32(sp.PITap), invert: sp.Invert, xor: sp.PIXor}
}

func (t tap) spec() TapSpec {
	return TapSpec{StateTap: int(t.state), PITap: int(t.pi), Invert: t.invert, PIXor: t.xor}
}

func (m *CoreModel) nextSpec(i int) TapSpec {
	nState, nPI := m.stateBits, m.Core.PIs
	sp := TapSpec{StateTap: -1, PITap: -1, PIXor: true}
	if nState > 0 {
		sp.StateTap = int(splitmix64((m.seed^0xA0000)+uint64(i)) % uint64(nState))
	}
	if nPI > 0 {
		sp.PITap = int(splitmix64((m.seed^0xA1000)+uint64(i)) % uint64(nPI))
	}
	h := splitmix64(m.seed ^ 1<<48 ^ uint64(i))
	sp.Invert = (h&1 == 1) != (h&2 == 2)
	return sp
}

func (m *CoreModel) poSpec(j int) TapSpec {
	nState, nPI := m.stateBits, m.Core.PIs
	sp := TapSpec{StateTap: -1, PITap: -1}
	if nState > 0 {
		sp.StateTap = int(splitmix64((m.seed^0xA2000)+uint64(j)) % uint64(nState))
	}
	if nPI > 0 {
		sp.PITap = int(splitmix64((m.seed^0xA3000)+uint64(j)) % uint64(nPI))
	}
	h := splitmix64(m.seed ^ 2<<48 ^ uint64(j))
	sp.Invert = h&1 == 1
	sp.PIXor = h&2 == 2
	return sp
}

// NextSpec returns the tap structure of next-state bit i at the core's full
// state and PI widths.
func (m *CoreModel) NextSpec(i int) TapSpec { return m.next[i].spec() }

// POSpec returns the tap structure of primary-output bit j at the core's
// full state and PI widths.
func (m *CoreModel) POSpec(j int) TapSpec { return m.po[j].spec() }

// Capture computes one scan capture: given the scan state (concatenated
// chains, StateBits long) and the PI values (one per core PI), it returns
// the next state and the PO values.  Each next-state bit mixes one state
// tap, one PI tap and a keyed constant; each PO bit likewise, so every load
// bit influences observable outputs.
func (m *CoreModel) Capture(state, pi []bool) (next, po []bool) {
	next = make([]bool, len(m.next))
	for i, t := range m.next {
		v := t.invert
		if t.state >= 0 && state[t.state] {
			v = !v
		}
		if t.pi >= 0 && pi[t.pi] {
			v = !v
		}
		next[i] = v
	}
	po = make([]bool, len(m.po))
	for j, t := range m.po {
		var sTap, pTap bool
		if t.state >= 0 {
			sTap = state[t.state]
		}
		if t.pi >= 0 {
			pTap = pi[t.pi]
		}
		v := t.invert != sTap
		if t.xor && pTap {
			v = !v
		}
		po[j] = v != (sTap && pTap)
	}
	return next, po
}

// FuncReset returns the functional machine's initial internal state.
func (m *CoreModel) FuncReset() uint64 { return splitmix64(m.seed ^ 0xF0F0) }

// FuncStep advances the functional Mealy machine one pattern: it mixes the
// packed PI vector into the internal state and writes the packed PO vector
// to po (Words(Core.POs) words).
func (m *CoreModel) FuncStep(state uint64, pi, po []uint64) uint64 {
	h := state
	for w, word := range pi {
		for ; word != 0; word &= word - 1 {
			h ^= m.piKeys[w*64+bits.TrailingZeros64(word)]
		}
	}
	h = splitmix64(h)
	nPO := len(m.po)
	for w := range po {
		word := h
		// Beyond the first 64 outputs each bit also mixes its own draw.
		for j := max(w*64, 64); j < min(w*64+64, nPO); j++ {
			word ^= (splitmix64(h^uint64(j)) & 1) << (j % 64)
		}
		if rest := nPO - w*64; rest < 64 {
			word &= 1<<rest - 1
		}
		po[w] = word
	}
	return h
}
