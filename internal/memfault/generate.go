package memfault

import (
	"math/rand"

	"steac/internal/memory"
)

// Fault-list generators.  The exhaustive generators are meant for the small
// memories used in coverage experiments; for production-size macros use
// Sample to draw a deterministic subset.

// StuckAtFaults returns SA0 and SA1 on every cell (2·N·B faults).
func StuckAtFaults(cfg memory.Config) []Fault {
	faults := make([]Fault, 0, 2*cfg.BitCount())
	forEachCell(cfg, func(c Cell) {
		faults = append(faults,
			Fault{Kind: SA0, Victim: c},
			Fault{Kind: SA1, Victim: c})
	})
	return faults
}

// TransitionFaults returns up- and down-transition faults on every cell.
func TransitionFaults(cfg memory.Config) []Fault {
	faults := make([]Fault, 0, 2*cfg.BitCount())
	forEachCell(cfg, func(c Cell) {
		faults = append(faults,
			Fault{Kind: TFUp, Victim: c},
			Fault{Kind: TFDown, Victim: c})
	})
	return faults
}

// StuckOpenFaults returns an SOF on every cell.
func StuckOpenFaults(cfg memory.Config) []Fault {
	faults := make([]Fault, 0, cfg.BitCount())
	forEachCell(cfg, func(c Cell) {
		faults = append(faults, Fault{Kind: SOF, Victim: c})
	})
	return faults
}

// ReadDisturbFaults returns an RDF on every cell.
func ReadDisturbFaults(cfg memory.Config) []Fault {
	faults := make([]Fault, 0, cfg.BitCount())
	forEachCell(cfg, func(c Cell) {
		faults = append(faults, Fault{Kind: RDF, Victim: c})
	})
	return faults
}

// AddressFaults returns one AF per address, mapping it to the next address
// (the classical "two addresses select one cell" decoder defect).
func AddressFaults(cfg memory.Config) []Fault {
	if cfg.Words < 2 {
		return nil
	}
	faults := make([]Fault, 0, cfg.Words)
	for a := 0; a < cfg.Words; a++ {
		faults = append(faults, Fault{
			Kind:    AF,
			Victim:  Cell{Addr: a},
			MapAddr: (a + 1) % cfg.Words,
		})
	}
	return faults
}

// CouplingFaults returns inversion, idempotent and state coupling faults
// between each cell and its address-order neighbour (the dominant physical
// adjacency in a RAM column).  Per victim/aggressor pair it emits:
// CFin ×2 (rise/fall), CFid ×4 (rise/fall × forced 0/1) and CFst ×4
// (aggressor state 0/1 × forced 0/1), in both pair orientations.  Every
// fault is generated once: with two words, address 1's pairs are address
// 0's, so only address 0 emits them; with three or more, no two addresses
// share a pair.
func CouplingFaults(cfg memory.Config) []Fault {
	if cfg.Words < 2 {
		return nil
	}
	words := cfg.Words
	if words == 2 {
		words = 1
	}
	faults := make([]Fault, 0, 20*words*cfg.Bits)
	for a := 0; a < words; a++ {
		for b := 0; b < cfg.Bits; b++ {
			v := Cell{Addr: a, Bit: b}
			n := Cell{Addr: (a + 1) % cfg.Words, Bit: b}
			faults = appendCouplings(faults, n, v)
			faults = appendCouplings(faults, v, n)
		}
	}
	return faults
}

// appendCouplings appends the ten coupling faults of one aggressor/victim
// pair, in CouplingFaults order.
func appendCouplings(faults []Fault, aggr, vict Cell) []Fault {
	for _, rise := range []bool{true, false} {
		faults = append(faults, Fault{Kind: CFin, Victim: vict, Aggr: aggr, AggrRise: rise})
		for forced := 0; forced <= 1; forced++ {
			faults = append(faults, Fault{Kind: CFid, Victim: vict, Aggr: aggr, AggrRise: rise, Forced: forced})
		}
	}
	for state := 0; state <= 1; state++ {
		for forced := 0; forced <= 1; forced++ {
			faults = append(faults, Fault{Kind: CFst, Victim: vict, Aggr: aggr, AggrState: state, Forced: forced})
		}
	}
	return faults
}

// RetentionFaults returns data-retention faults (decay to 0 and to 1) on
// every cell; they are only observable under a March test with retention
// pauses (Options.PauseBefore / the BIST retention mode).
func RetentionFaults(cfg memory.Config) []Fault {
	faults := make([]Fault, 0, 2*cfg.BitCount())
	forEachCell(cfg, func(c Cell) {
		faults = append(faults,
			Fault{Kind: DRF, Victim: c, Forced: 0},
			Fault{Kind: DRF, Victim: c, Forced: 1})
	})
	return faults
}

// RetentionPauses returns the canonical pause points for an algorithm whose
// element 1 reads background data and element 2 reads complement data
// (true for MATS+, March X/Y/C-): pausing before each lets both decay
// directions manifest.
func RetentionPauses() []int { return []int{1, 2} }

// IntraWordCouplingFaults returns coupling faults whose aggressor is the
// adjacent bit of the same word.  Because a March write updates every bit
// of a word with the same background-relative value, some of these faults
// are invisible under a solid background (e.g. a rise-triggered CFid that
// forces the value the victim is being written anyway) and require a
// checkerboard background to sensitize — the reason BRAINS supports
// multiple data backgrounds.
func IntraWordCouplingFaults(cfg memory.Config) []Fault {
	if cfg.Bits < 2 {
		return nil
	}
	// Each cell is the victim of exactly one pair, so nothing repeats.
	faults := make([]Fault, 0, 10*cfg.BitCount())
	forEachCell(cfg, func(v Cell) {
		faults = appendCouplings(faults, Cell{Addr: v.Addr, Bit: (v.Bit + 1) % cfg.Bits}, v)
	})
	return faults
}

// Checkerboard returns the alternating-bit background for a word width.
func Checkerboard(bits int) uint64 {
	var bg uint64
	for i := 0; i < bits; i += 2 {
		bg |= 1 << i
	}
	return bg
}

// AllFaults concatenates every generator (the full campaign list).
func AllFaults(cfg memory.Config) []Fault {
	var faults []Fault
	faults = append(faults, StuckAtFaults(cfg)...)
	faults = append(faults, TransitionFaults(cfg)...)
	faults = append(faults, StuckOpenFaults(cfg)...)
	faults = append(faults, ReadDisturbFaults(cfg)...)
	faults = append(faults, AddressFaults(cfg)...)
	faults = append(faults, CouplingFaults(cfg)...)
	return faults
}

// Sample draws up to n faults deterministically (seeded) from the list, for
// campaigns against production-size memories.
func Sample(faults []Fault, n int, seed int64) []Fault {
	if n >= len(faults) {
		out := make([]Fault, len(faults))
		copy(out, faults)
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(faults))
	out := make([]Fault, n)
	for i := 0; i < n; i++ {
		out[i] = faults[perm[i]]
	}
	return out
}

func forEachCell(cfg memory.Config, fn func(Cell)) {
	for a := 0; a < cfg.Words; a++ {
		for b := 0; b < cfg.Bits; b++ {
			fn(Cell{Addr: a, Bit: b})
		}
	}
}
