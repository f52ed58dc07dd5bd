package pattern

import (
	"fmt"

	"steac/internal/testinfo"
)

// ScanPattern is one core-level scan pattern as an ATPG emits it: per-chain
// load data, PI stimulus for the capture cycle, and the expected responses
// (per-chain unload data and PO values at capture).
type ScanPattern struct {
	// Load holds the chain load vectors, indexed like Core.ScanChains.
	Load [][]bool
	// PI is the primary-input stimulus applied during capture.
	PI []bool
	// ExpectUnload is the expected chain content after capture.
	ExpectUnload [][]bool
	// ExpectPO is the expected primary-output response at capture.
	ExpectPO []bool
}

// FuncPattern is one cycle-based functional pattern, packed 64 pins per
// word (pin i is bit i%64 of word i/64; the core's PIs and POs give the
// widths, and bits past them are 0).
type FuncPattern struct {
	PI       []uint64
	ExpectPO []uint64
}

// ATPG is the synthetic pattern source for one core.  Patterns are
// generated deterministically and on demand, so the multi-hundred-thousand
// functional sets of the DSC chip stream through the translator without
// ever being materialized.
type ATPG struct {
	Model *CoreModel

	scanSeed  uint64
	funcSeed  uint64
	scanCount int
	funcCount int
}

// NewATPG builds the pattern source from a core's test information.
func NewATPG(core *testinfo.Core) (*ATPG, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	a := &ATPG{Model: NewCoreModel(core)}
	for _, p := range core.Patterns {
		switch p.Type {
		case testinfo.Scan:
			a.scanCount += p.Count
			a.scanSeed = splitmix64(a.scanSeed ^ uint64(p.Seed))
		case testinfo.Functional:
			a.funcCount += p.Count
			a.funcSeed = splitmix64(a.funcSeed ^ uint64(p.Seed))
		}
	}
	return a, nil
}

// Core returns the core this source tests.
func (a *ATPG) Core() *testinfo.Core { return a.Model.Core }

// ScanCount returns the number of scan patterns.
func (a *ATPG) ScanCount() int { return a.scanCount }

// FuncCount returns the number of functional patterns.
func (a *ATPG) FuncCount() int { return a.funcCount }

// prandWords draws n pseudo-random bits packed LSB first: word k is
// splitmix64(seed+k), masked to n bits in the last word — prandBits's
// draws in packed form.
func prandWords(seed uint64, n int) []uint64 {
	words := make([]uint64, Words(n))
	for k := range words {
		words[k] = splitmix64(seed + uint64(k))
	}
	if r := n % 64; r != 0 {
		words[len(words)-1] &= 1<<r - 1
	}
	return words
}

func prandBits(seed uint64, n int) []bool {
	bits := make([]bool, n)
	var word uint64
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			word = splitmix64(seed + uint64(i/64))
		}
		bits[i] = word&1 == 1
		word >>= 1
	}
	return bits
}

// ScanPattern generates scan pattern i (0-based).
func (a *ATPG) ScanPattern(i int) (ScanPattern, error) {
	if i < 0 || i >= a.scanCount {
		return ScanPattern{}, fmt.Errorf("pattern: scan pattern %d of %d", i, a.scanCount)
	}
	core := a.Core()
	state := prandBits(splitmix64(a.scanSeed^uint64(i)), a.Model.StateBits())
	pi := prandBits(splitmix64(a.scanSeed^0x50000^uint64(i)), core.PIs)
	next, po := a.Model.Capture(state, pi)
	p := ScanPattern{PI: pi, ExpectPO: po}
	off := 0
	for _, ch := range core.ScanChains {
		p.Load = append(p.Load, state[off:off+ch.Length])
		p.ExpectUnload = append(p.ExpectUnload, next[off:off+ch.Length])
		off += ch.Length
	}
	return p, nil
}
