// Package xcheck is the gate-level differential verification subsystem: it
// cross-checks every netlist the DFT generators emit (BIST sequencer/TPG
// benches, the shared BIST controller, wrapper + structural core stacks)
// against independent behavioural references, cycle by cycle and pin by
// pin, over complete March sessions and full translated scan programs.  On
// top of the equivalence checks it runs gate-level stuck-at fault-injection
// campaigns (netlist.CompiledSim's Inject hook) that measure how much of
// the DFT hardware itself the tester-visible responses actually cover —
// the generated BIST must catch faults in its own controller and TPGs, and
// the translated ATE patterns must catch faults in the wrapper cells.
//
// The references are deliberately written against the *semantics* (March
// definitions, the Fig. 2 controller handshake, the IEEE-1500-style scan
// protocol), not against the generator code, so a bug in either side shows
// up as a pin mismatch.  One intentional semantic difference is modeled
// explicitly: generated TPG address counters wrap at the power-of-two
// boundary, so benches run on padded geometries (Words = 2^AddrBits),
// matching what the memory compiler fabricates.
package xcheck

import (
	"fmt"

	"steac/internal/netlist"
	"steac/internal/obs"
)

// Observability.  Pin-check and cycle totals are added once per finished
// equivalence result and once per campaign (aggregation side, not worker
// side), so they are worker-count-invariant.  The spans separate the two
// expensive modes: full-session equivalence runs vs fault campaigns.
var (
	obsSpanVerify   = obs.GetSpan("xcheck.verify")
	obsSpanCampaign = obs.GetSpan("xcheck.campaign")
	obsEquivChecks  = obs.GetCounter("xcheck.equiv_checks")
	obsEquivCycles  = obs.GetCounter("xcheck.cycles")
	obsPinChecks    = obs.GetCounter("xcheck.pin_checks")
	obsCampFaults   = obs.GetCounter("xcheck.faults_simulated")
	obsCampDetected = obs.GetCounter("xcheck.faults_detected")
)

// Options configures the subsystem.  The Workers/Seed/MaxUndetected
// fields follow the repository-wide engine-options convention documented
// in DESIGN.md: 0 means the canonical deterministic default everywhere.
type Options struct {
	// Workers bounds the fault-campaign parallelism; <=0 means GOMAXPROCS.
	Workers int
	// Seed rotates the MaxFaults stride sampling through the fault universe
	// (deterministic for a fixed seed; 0 = the canonical stride starting at
	// site 0).  Exhaustive campaigns ignore it.
	Seed int64
	// MaxUndetected caps CampaignResult.Undetected, the list of surviving
	// faults kept for reports.  0 means the default cap of 32; a negative
	// value keeps every survivor.  Detected/Total counts are exact either
	// way.
	MaxUndetected int
	// MaxFaults caps a campaign's fault list by uniform stride sampling
	// (0 = exhaustive).  Results report the sampled count explicitly, never
	// silently.
	MaxFaults int
	// MaxMismatches caps how many pin mismatches an equivalence check
	// records before giving up (0 = default 10).
	MaxMismatches int
	// MaxPatterns caps the scan patterns a wrapper fault campaign streams
	// per fault (0 = the core's full pattern set).  Wrapper-cell faults are
	// caught within the first few loads, so a small cap keeps per-fault
	// simulation affordable on real cores; equivalence checks always run
	// the full program.
	MaxPatterns int
}

// undetectedCap resolves Options.MaxUndetected (0 = 32, negative = no cap),
// mirroring memfault.Options.
func (o Options) undetectedCap() int {
	if o.MaxUndetected == 0 {
		return 32
	}
	return o.MaxUndetected
}

func (o Options) maxMismatches() int {
	if o.MaxMismatches > 0 {
		return o.MaxMismatches
	}
	return 10
}

// PinMismatch is one cycle/pin disagreement between the gate-level netlist
// and its behavioural reference.
type PinMismatch struct {
	Cycle int
	Pin   string
	Got   bool // gate-level value
	Want  bool // reference value
}

func (m PinMismatch) String() string {
	return fmt.Sprintf("cycle %d pin %s: gate=%v ref=%v", m.Cycle, m.Pin, m.Got, m.Want)
}

// EquivResult is the outcome of one equivalence check.
type EquivResult struct {
	Name string
	// Sessions is the number of independent sessions driven (data
	// backgrounds × port selections for BIST benches).
	Sessions int
	// Cycles is the total tester cycles simulated across all sessions.
	Cycles int
	// Checks counts individual pin comparisons performed.
	Checks int64
	// Gates is the flattened gate count of the design under check.
	Gates int
	// Mismatches holds the first disagreements found (capped).
	Mismatches []PinMismatch
	// Notes records structural cross-check failures (cycle-count formula
	// disagreements and the like); any note fails the check.
	Notes []string
	Pass  bool
}

func (r *EquivResult) mismatch(cycle int, pin string, got, want bool, cap int) {
	if len(r.Mismatches) < cap {
		r.Mismatches = append(r.Mismatches, PinMismatch{Cycle: cycle, Pin: pin, Got: got, Want: want})
	}
}

func (r *EquivResult) check(cycle int, pin string, got, want bool, cap int) {
	r.Checks++
	if got != want {
		r.mismatch(cycle, pin, got, want, cap)
	}
}

func (r *EquivResult) finish() {
	r.Pass = len(r.Mismatches) == 0 && len(r.Notes) == 0
	obsEquivChecks.Add(1)
	obsEquivCycles.Add(int64(r.Cycles))
	obsPinChecks.Add(r.Checks)
}

// String summarizes the result on one line.
func (r EquivResult) String() string {
	status := "EQUIVALENT"
	if !r.Pass {
		status = "MISMATCH"
	}
	return fmt.Sprintf("%-24s %-10s %3d sessions %9d cycles %10d checks",
		r.Name, status, r.Sessions, r.Cycles, r.Checks)
}

// FaultDetection records where a stuck-at fault became tester-visible.
type FaultDetection struct {
	Fault netlist.SAFault
	Cycle int
}

// CampaignResult is the outcome of one stuck-at fault campaign.
type CampaignResult struct {
	Name string
	// Sites is the full fault universe of the design; Total is how many
	// were simulated (less than Sites only under MaxFaults sampling).
	Sites    int
	Total    int
	Detected int
	// Undetected lists surviving faults for reports, capped at
	// Options.MaxUndetected (default 32; negative keeps all).  The exact
	// survivor count is UndetectedCount, which never depends on the cap.
	Undetected []netlist.SAFault
	// Detections holds the detection cycle per detected fault, in fault
	// order.
	Detections []FaultDetection
	// GoldenCycles is the fault-free trace length the campaign compared
	// against.
	GoldenCycles int
}

// Coverage returns detected/total in percent.
func (c CampaignResult) Coverage() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Detected) / float64(c.Total)
}

// Sampled reports whether the campaign simulated a strict subset of the
// fault universe.
func (c CampaignResult) Sampled() bool { return c.Total < c.Sites }

// UndetectedCount is the exact number of simulated faults that stayed
// silent, independent of the Undetected report cap.
func (c CampaignResult) UndetectedCount() int { return c.Total - c.Detected }

// String summarizes the campaign on one line.
func (c CampaignResult) String() string {
	sampled := ""
	if c.Sampled() {
		sampled = fmt.Sprintf(" (sampled from %d sites)", c.Sites)
	}
	return fmt.Sprintf("%-24s %5d faults%s %5d detected %5d undetected  %6.2f%% coverage",
		c.Name, c.Total, sampled, c.Detected, c.UndetectedCount(), c.Coverage())
}

// Report aggregates a full cross-check run.
type Report struct {
	Equiv     []EquivResult
	Campaigns []CampaignResult
}

// Pass reports whether every equivalence check passed.
func (r Report) Pass() bool {
	for _, e := range r.Equiv {
		if !e.Pass {
			return false
		}
	}
	return true
}
