// Package testinfo models the per-core test information that flows from the
// core provider's ATPG into the STEAC platform (paper §2): IO ports, clock
// domains, scan structure (number of scan chains, length of each chain,
// dedicated or shared scan IOs), and the pattern sets (scan and functional)
// with their sizes.  Table 1 of the paper is exactly a rendering of this
// structure for the DSC chip's three wrapped cores.
package testinfo

import (
	"fmt"
	"sort"
)

// TestType distinguishes scan from functional pattern sets.
type TestType int

// Test types.
const (
	Scan TestType = iota
	Functional
)

// String names the test type the way Table 1 does.
func (t TestType) String() string {
	if t == Functional {
		return "Func."
	}
	return "Scan"
}

// ScanChain is one internal scan chain of a core.
type ScanChain struct {
	Name   string
	Length int
	// In and Out are the core's scan-in/scan-out pin names.
	In, Out string
	// Clock is the clock-domain pin that shifts this chain.
	Clock string
	// SharedOut marks a chain whose scan-out is multiplexed onto a
	// functional output (the TV encoder has one such chain), so it does
	// not cost a dedicated test output pin.
	SharedOut bool
}

// PatternSet is one named set of test patterns.
type PatternSet struct {
	Name  string
	Type  TestType
	Count int
	// Seed parameterizes the synthetic ATPG substitute that generates the
	// actual vectors (see package pattern); two equal seeds give identical
	// pattern data.
	Seed int64
}

// Core is the test information of one embedded core.
type Core struct {
	Name string
	// Soft cores allow scan-chain reconfiguration, so the scheduler's
	// chain rebalancing feedback applies to them (paper §2).
	Soft bool

	// Test control pins.
	Clocks      []string
	Resets      []string
	ScanEnables []string
	TestEnables []string

	// Functional primary IO counts (excluding test pins).
	PIs, POs int

	ScanChains []ScanChain
	Patterns   []PatternSet
}

// Validate checks internal consistency.
func (c *Core) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("testinfo: core with empty name")
	}
	if len(c.Clocks) == 0 {
		return fmt.Errorf("testinfo: core %s has no clock", c.Name)
	}
	if c.PIs < 0 || c.POs < 0 {
		return fmt.Errorf("testinfo: core %s has negative IO counts", c.Name)
	}
	clockSet := make(map[string]bool)
	for _, ck := range c.Clocks {
		clockSet[ck] = true
	}
	seen := make(map[string]bool)
	for _, ch := range c.ScanChains {
		if ch.Length <= 0 {
			return fmt.Errorf("testinfo: core %s chain %s has length %d", c.Name, ch.Name, ch.Length)
		}
		if seen[ch.Name] {
			return fmt.Errorf("testinfo: core %s duplicate chain %s", c.Name, ch.Name)
		}
		seen[ch.Name] = true
		if ch.Clock != "" && !clockSet[ch.Clock] {
			return fmt.Errorf("testinfo: core %s chain %s uses unknown clock %s", c.Name, ch.Name, ch.Clock)
		}
	}
	if len(c.ScanChains) > 0 && len(c.ScanEnables) == 0 {
		return fmt.Errorf("testinfo: core %s has scan chains but no scan enable", c.Name)
	}
	for _, p := range c.Patterns {
		if p.Count < 0 {
			return fmt.Errorf("testinfo: core %s pattern set %s has count %d", c.Name, p.Name, p.Count)
		}
		if p.Type == Scan && len(c.ScanChains) == 0 {
			return fmt.Errorf("testinfo: core %s has scan patterns but no chains", c.Name)
		}
	}
	return nil
}

// TestInputs returns TI as Table 1 counts it: test control pins (clocks,
// resets, scan enables, test enables) plus one dedicated scan-in per chain.
func (c *Core) TestInputs() int {
	return len(c.Clocks) + len(c.Resets) + len(c.ScanEnables) + len(c.TestEnables) +
		len(c.ScanChains)
}

// TestOutputs returns TO: one dedicated scan-out per chain that does not
// share a functional output.
func (c *Core) TestOutputs() int {
	n := 0
	for _, ch := range c.ScanChains {
		if !ch.SharedOut {
			n++
		}
	}
	return n
}

// ControlIOs returns the count of test *control* pins (clock + reset + SE +
// TE), the quantity the paper's shared-IO analysis reduces.
func (c *Core) ControlIOs() int {
	return len(c.Clocks) + len(c.Resets) + len(c.ScanEnables) + len(c.TestEnables)
}

// ChainLengths returns the scan chain lengths, longest first.
func (c *Core) ChainLengths() []int {
	ls := make([]int, len(c.ScanChains))
	for i, ch := range c.ScanChains {
		ls[i] = ch.Length
	}
	sort.Sort(sort.Reverse(sort.IntSlice(ls)))
	return ls
}

// TotalScanBits returns the summed chain length (the number of scanned
// state elements).
func (c *Core) TotalScanBits() int {
	total := 0
	for _, ch := range c.ScanChains {
		total += ch.Length
	}
	return total
}

// ScanPatternCount sums the scan pattern sets.
func (c *Core) ScanPatternCount() int { return c.patternCount(Scan) }

// FunctionalPatternCount sums the functional pattern sets.
func (c *Core) FunctionalPatternCount() int { return c.patternCount(Functional) }

func (c *Core) patternCount(t TestType) int {
	total := 0
	for _, p := range c.Patterns {
		if p.Type == t {
			total += p.Count
		}
	}
	return total
}

// HasScan reports whether the core has internal scan.
func (c *Core) HasScan() bool { return len(c.ScanChains) > 0 }

// SharedControlIOs computes the test-control pin budget for a set of cores
// when compatible control signals are shared the way the paper's test
// controller shares them: clocks stay dedicated (each is a distinct PLL
// domain), resets stay dedicated, but the scan enables of all cores collapse
// onto one chip-level SE and the test enables are driven from the test
// controller's decoded outputs, costing ceil(log2(total TE + 1)) chip pins.
type SharedControlIOs struct {
	Clocks       int
	Resets       int
	ScanEnables  int
	TestEnables  int
	Dedicated    int // sum of per-core control IOs without sharing
	SharedTotal  int
	EncodedTEBit int
}

// ShareControlIOs aggregates the control pins of the given cores.
func ShareControlIOs(cores []*Core) SharedControlIOs {
	var s SharedControlIOs
	for _, c := range cores {
		s.Clocks += len(c.Clocks)
		s.Resets += len(c.Resets)
		s.ScanEnables += len(c.ScanEnables)
		s.TestEnables += len(c.TestEnables)
		s.Dedicated += c.ControlIOs()
	}
	se := 0
	if s.ScanEnables > 0 {
		se = 1 // one chip-level SE drives every core's SE
	}
	te := 0
	for v := s.TestEnables; v > 0; v >>= 1 {
		te++
	}
	s.EncodedTEBit = te
	s.SharedTotal = s.Clocks + s.Resets + se + te
	return s
}
