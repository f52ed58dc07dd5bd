package memfault

import (
	"fmt"
	"slices"
	"testing"

	"steac/internal/memory"
)

// refCouplingFaults is CouplingFaults as it was first written — both pair
// orientations from every cell, duplicates removed by a seen-set — kept as
// the reference the by-construction generator must reproduce.
func refCouplingFaults(cfg memory.Config) []Fault {
	var faults []Fault
	if cfg.Words < 2 {
		return nil
	}
	forEachCell(cfg, func(v Cell) {
		a := Cell{Addr: (v.Addr + 1) % cfg.Words, Bit: v.Bit}
		for _, pair := range [][2]Cell{{a, v}, {v, a}} {
			faults = append(faults, refPairFaults(pair[0], pair[1])...)
		}
	})
	return refDedupe(faults)
}

// refIntraWordCouplingFaults is the seen-set reference for
// IntraWordCouplingFaults.
func refIntraWordCouplingFaults(cfg memory.Config) []Fault {
	if cfg.Bits < 2 {
		return nil
	}
	var faults []Fault
	forEachCell(cfg, func(v Cell) {
		faults = append(faults, refPairFaults(Cell{Addr: v.Addr, Bit: (v.Bit + 1) % cfg.Bits}, v)...)
	})
	return refDedupe(faults)
}

func refPairFaults(aggr, vict Cell) []Fault {
	var faults []Fault
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

func refDedupe(faults []Fault) []Fault {
	seen := make(map[Fault]bool, len(faults))
	out := faults[:0]
	for _, f := range faults {
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// TestCouplingFaultsMatchReference pins the coupling-fault lists element by
// element against the seen-set reference, including the two-word memory
// whose second address only repeats the first's pairs.
func TestCouplingFaultsMatchReference(t *testing.T) {
	for words := 1; words <= 5; words++ {
		for bits := 1; bits <= 3; bits++ {
			cfg := memory.Config{Name: fmt.Sprintf("m%dx%d", words, bits), Words: words, Bits: bits}
			if got, want := CouplingFaults(cfg), refCouplingFaults(cfg); !slices.Equal(got, want) {
				t.Errorf("%s CouplingFaults: %d faults, reference %d (or order differs)", cfg.Name, len(got), len(want))
			}
			if got, want := IntraWordCouplingFaults(cfg), refIntraWordCouplingFaults(cfg); !slices.Equal(got, want) {
				t.Errorf("%s IntraWordCouplingFaults: %d faults, reference %d (or order differs)", cfg.Name, len(got), len(want))
			}
		}
	}
}
