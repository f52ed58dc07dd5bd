package scenario

import (
	"errors"
	"fmt"

	"steac/internal/pattern"
)

// The builtin catalog.  `dsc` is the paper's Table-1 chip and the only
// source of it: fully pinned, so every distribution is a point mass and the
// generated chip is seed-invariant (the registry tests pin its Table-1
// values and its netlist's bytes).  The others span the design-space
// dimensions the related work adds: Sadredini-style per-session power
// budgets for hybrid BIST, Bernardi-style P1500 logic-core BIST,
// SRAM-dominated chips, and many-core pin pressure.
func init() {
	Register(dscSpec())
	Register(hybridPowerSpec())
	Register(p1500LBISTSpec())
	Register(memoryHeavySpec())
	Register(manycoreSpec())
}

// dscSpec pins the paper's DSC controller (Fig. 3): Table 1's three cores,
// the 22 SRAM macros — "tens of single-port and two-port synchronous
// SRAMs", reconstructed as frame and line buffers, JPEG working RAM and
// FIFOs totalling ≈437K words, so March C- over the set lands in the
// paper's ≈4.37M-cycle regime — the unwrapped blocks that put the chip
// logic near 170K gates (the base of the paper's ≈0.3% DFT overhead), and
// the 26-pin/34-power budget of the pad-limited chip.
func dscSpec() *Spec {
	return &Spec{
		Name:        "dsc",
		Description: "the paper's Table-1 DSC controller (3 cores, 22 SRAMs, 26 test pins)",
		Cores: []CoreSpec{
			{
				Name:   "USB",
				Clocks: fixed(4), Resets: fixed(3), TestEnables: fixed(6),
				PIs: fixed(221), POs: fixed(104),
				ChainLengths: []int{1629, 78, 293, 45},
				ScanPatterns: fixed(716), ScanSeed: 0xDC01,
			},
			{
				Name:   "TV",
				Clocks: fixed(1), Resets: fixed(1), TestEnables: fixed(1),
				PIs: fixed(25), POs: fixed(40),
				ChainLengths: []int{577, 576}, SharedOuts: 1,
				ScanPatterns: fixed(229), ScanSeed: 0xDC02,
				FuncPatterns: fixed(202673), FuncSeed: 0xDC03,
			},
			{
				Name:   "JPEG",
				Clocks: fixed(1), Resets: fixed(0),
				PIs: fixed(165), POs: fixed(104),
				FuncPatterns: fixed(235696), FuncSeed: 0xDC04,
			},
		},
		Memories: []MemorySpec{
			// CCD frame buffers.
			{Name: "fb0", Words: fixed(65536), Bits: fixed(16)},
			{Name: "fb1", Words: fixed(65536), Bits: fixed(16)},
			{Name: "fb2", Words: fixed(65536), Bits: fixed(16)},
			{Name: "fb3", Words: fixed(65536), Bits: fixed(16)},
			// JPEG working buffers.
			{Name: "jwb0", Words: fixed(32768), Bits: fixed(16)},
			{Name: "jwb1", Words: fixed(32768), Bits: fixed(16)},
			{Name: "jq0", Words: fixed(16384), Bits: fixed(32)},
			{Name: "jq1", Words: fixed(16384), Bits: fixed(32)},
			// Video line buffers.
			{Name: "lb0", Words: fixed(16384), Bits: fixed(16)},
			{Name: "lb1", Words: fixed(16384), Bits: fixed(16)},
			{Name: "lb2", Words: fixed(8192), Bits: fixed(16)},
			{Name: "lb4", Words: fixed(990), Bits: fixed(16)},
			{Name: "lb5", Words: fixed(990), Bits: fixed(16)},
			// Processor caches / scratch.
			{Name: "icache", Words: fixed(8192), Bits: fixed(32)},
			{Name: "dcache", Words: fixed(8192), Bits: fixed(32)},
			{Name: "scr0", Words: fixed(4096), Bits: fixed(16)},
			{Name: "scr1", Words: fixed(2048), Bits: fixed(8)},
			{Name: "scr2", Words: fixed(1024), Bits: fixed(8)},
			// Interface FIFOs (two-port).
			{Name: "usbfifo0", Words: fixed(4096), Bits: fixed(16), TwoPort: true},
			{Name: "usbfifo1", Words: fixed(4096), Bits: fixed(16), TwoPort: true},
			{Name: "tvfifo", Words: fixed(2048), Bits: fixed(32), TwoPort: true},
			{Name: "extfifo", Words: fixed(512), Bits: fixed(16), TwoPort: true},
		},
		Blocks: map[string]float64{"processor": 60000, "extmem": 18000, "glue": 13000},
		Resources: &ResourceSpec{
			TestPins: 26, FuncPins: 300, MaxPower: 34, Partitioner: "lpt",
		},
		BIST: &BISTSpec{Grouping: "per-memory"},
	}
}

// ErrNoInterconnects reports a chip without a modelled core-to-core glue
// netlist, so no EXTEST interconnect session can be built for it.
var ErrNoInterconnects = errors.New("scenario: no glue interconnects")

// Interconnects returns the core-to-core glue wiring the EXTEST
// interconnect session covers.  Only the paper's chip models one: the JPEG
// codec's pixel-bus outputs feed the TV encoder's inputs, the TV encoder's
// sync outputs feed the USB (status readback), and USB control outputs
// feed the JPEG codec.  Every other chip, dsc-derived ones included, is an
// ErrNoInterconnects error.
func (c *Chip) Interconnects() ([]pattern.Interconnect, error) {
	if c.Scenario != "dsc" {
		return nil, fmt.Errorf("%w: chip %q (EXTEST is only available for chip \"dsc\")",
			ErrNoInterconnects, c.Scenario)
	}
	var wires []pattern.Interconnect
	for i := 0; i < 16; i++ { // JPEG pixel bus -> TV encoder
		wires = append(wires, pattern.Interconnect{FromCore: "JPEG", FromPO: i, ToCore: "TV", ToPI: i})
	}
	for i := 0; i < 4; i++ { // TV sync -> USB status
		wires = append(wires, pattern.Interconnect{FromCore: "TV", FromPO: 32 + i, ToCore: "USB", ToPI: 200 + i})
	}
	for i := 0; i < 4; i++ { // USB control -> JPEG
		wires = append(wires, pattern.Interconnect{FromCore: "USB", FromPO: 96 + i, ToCore: "JPEG", ToPI: 160 + i})
	}
	return wires, nil
}

// hybridPowerSpec is the Sadredini-style power-constrained hybrid-BIST SOC:
// scan/functional cores plus per-memory BIST under a per-session summed
// power budget (18) tight enough that the scheduler must spread the BIST
// groups (up to ~36 power in total) over several sessions.
func hybridPowerSpec() *Spec {
	return &Spec{
		Name:        "hybrid-power",
		Description: "power-budgeted hybrid BIST (Sadredini-style per-session envelope)",
		Cores: []CoreSpec{
			{
				Name: "dsp", Count: span(2, 3),
				Clocks: fixed(1), Resets: fixed(1), TestEnables: fixed(1),
				PIs: span(16, 48), POs: span(16, 48),
				Chains: span(2, 4), ChainLength: span(60, 240),
				ScanPatterns: span(40, 100), FuncPatterns: span(0, 400),
			},
			{
				Name:   "ctrl",
				Clocks: fixed(1), Resets: fixed(1),
				PIs: span(24, 64), POs: span(16, 40),
				Chains: span(1, 2), ChainLength: span(40, 160),
				ScanPatterns: span(30, 80),
			},
			{
				Name:   "codec",
				Clocks: fixed(1), Resets: fixed(1),
				PIs: span(32, 96), POs: span(24, 64),
				FuncPatterns: span(500, 2500),
			},
		},
		Memories: []MemorySpec{
			{Name: "buf", Count: span(2, 4), Words: choice(256, 512, 1024, 2048), Bits: choice(8, 16)},
			{Name: "fifo", Count: span(1, 2), Words: choice(128, 256, 512), Bits: choice(8, 16), TwoPort: true},
		},
		Blocks: map[string]float64{"glue": 4000},
		Resources: &ResourceSpec{
			TestPins: 40, FuncPins: 200, MaxPower: 30, PowerBudget: 18, Partitioner: "lpt",
		},
		BIST: &BISTSpec{Grouping: "per-memory"},
	}
}

// p1500LBISTSpec derives from hybrid-power (exercising the merge path) and
// converts most scanned cores to Bernardi-style P1500 hybrid logic BIST:
// on-chip pseudo-random sessions with a deterministic external top-up.
func p1500LBISTSpec() *Spec {
	return &Spec{
		Name:        "p1500-lbist",
		Base:        "hybrid-power",
		Description: "P1500 logic-core BIST variant (Bernardi-style hybrid LBIST + scan top-up)",
		LogicBIST: &LogicBISTSpec{
			Fraction: 0.75,
			Patterns: span(200, 800),
			TopUp:    0.15,
		},
	}
}

// memoryHeavySpec is an SRAM-dominated chip: one small MCU, many small
// macros, kind-grouped sequencers.
func memoryHeavySpec() *Spec {
	return &Spec{
		Name:        "memory-heavy",
		Description: "SRAM-dominated SOC: one MCU, 6-10 small macros, kind-grouped BIST",
		Cores: []CoreSpec{
			{
				Name:   "mcu",
				Clocks: fixed(1), Resets: fixed(1),
				PIs: span(16, 40), POs: span(8, 32),
				Chains: span(1, 3), ChainLength: span(50, 200),
				ScanPatterns: span(30, 80),
			},
		},
		Memories: []MemorySpec{
			{Name: "ram", Count: span(6, 10), Words: choice(64, 128, 256, 512, 1024),
				Bits: choice(4, 8, 16), TwoPortFrac: 0.25},
		},
		Resources: &ResourceSpec{TestPins: 32, FuncPins: 120, Partitioner: "lpt"},
		BIST:      &BISTSpec{Grouping: "by-kind", Algorithm: "March C-"},
	}
}

// manycoreSpec stresses pin sharing: 5-7 identical processing elements
// behind a budget that only session-based control sharing satisfies.
func manycoreSpec() *Spec {
	return &Spec{
		Name:        "manycore",
		Description: "5-7 scan PEs sharing a tight pin budget, small scratchpads",
		Cores: []CoreSpec{
			{
				Name: "pe", Count: span(5, 7),
				Clocks: fixed(1), Resets: fixed(1), TestEnables: fixed(1),
				PIs: span(8, 24), POs: span(8, 24),
				Chains: span(1, 3), ChainLength: span(30, 120),
				ScanPatterns: span(20, 60),
			},
		},
		Memories: []MemorySpec{
			{Name: "spm", Count: span(2, 3), Words: choice(128, 256, 512), Bits: choice(8, 16)},
		},
		Resources: &ResourceSpec{TestPins: 44, FuncPins: 100, Partitioner: "lpt"},
		BIST:      &BISTSpec{Grouping: "per-memory"},
	}
}
