package netlist

import (
	"fmt"
	"sort"
)

// SAFault is one single stuck-at fault site on a flattened gate port.  The
// classic structural test model pins one input or output pin of one
// primitive cell to a constant and asks whether any applied pattern makes
// the difference visible at an observable output.
type SAFault struct {
	Gate  string // flattened instance name, e.g. "u_seq/u_op0"
	Port  string // formal port on the cell, e.g. "A", "Z", "D", "Q"
	Value bool   // stuck-at value: false = SA0, true = SA1
}

func (f SAFault) String() string {
	sa := "SA0"
	if f.Value {
		sa = "SA1"
	}
	return fmt.Sprintf("%s/%s %s", f.Gate, f.Port, sa)
}

// enumerateFaults lists both stuck-at polarities of every connected input
// and output port of every flattened gate, sorted by gate name, port name
// and polarity so campaigns are deterministic regardless of worker count.
func enumerateFaults(gates []*flatGate) []SAFault {
	var sites []SAFault
	for _, g := range gates {
		ports := make([]string, 0, len(g.cell.Inputs)+len(g.cell.Outputs))
		ports = append(ports, g.cell.Inputs...)
		ports = append(ports, g.cell.Outputs...)
		for _, p := range ports {
			if _, ok := g.conns[p]; !ok {
				continue // unconnected pin: nothing to observe
			}
			sites = append(sites,
				SAFault{Gate: g.name, Port: p, Value: false},
				SAFault{Gate: g.name, Port: p, Value: true})
		}
	}
	sortSites(sites)
	return sites
}

// sortSites orders fault sites by gate name, port name and polarity.
func sortSites(sites []SAFault) {
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.Gate != b.Gate {
			return a.Gate < b.Gate
		}
		if a.Port != b.Port {
			return a.Port < b.Port
		}
		return !a.Value && b.Value
	})
}

// Faults enumerates every injectable stuck-at site of the flattened design
// (two polarities per connected gate pin), in deterministic order.
func (s *Simulator) Faults() []SAFault { return enumerateFaults(s.gates) }

// Inject forces a stuck-at fault on one port of one flattened gate.  An
// input-port fault is seen only by that gate; an output-port fault drives
// the attached net (and hence all fanout).  Multiple faults may be active
// at once; ClearFaults removes them all.
func (s *Simulator) Inject(gate, port string, value bool) error {
	for _, g := range s.gates {
		if g.name != gate {
			continue
		}
		for _, f := range g.cell.Inputs {
			if f == port {
				if g.forceIn == nil {
					g.forceIn = make(map[string]bool, 1)
				}
				g.forceIn[port] = value
				return nil
			}
		}
		for _, f := range g.cell.Outputs {
			if f == port {
				if g.forceOut == nil {
					g.forceOut = make(map[string]bool, 1)
				}
				g.forceOut[port] = value
				return nil
			}
		}
		return fmt.Errorf("netlist: gate %s (%s) has no port %s", gate, g.cell.Name, port)
	}
	return fmt.Errorf("netlist: no gate named %s", gate)
}

// ClearFaults removes every injected fault.  Net values downstream of a
// removed fault are stale until the next Settle.
func (s *Simulator) ClearFaults() {
	for _, g := range s.gates {
		g.forceIn, g.forceOut = nil, nil
	}
}

// Reset returns every net and every sequential state bit to 0 and settles.
// Injected faults stay active across a Reset.
func (s *Simulator) Reset() error {
	for n := range s.values {
		s.values[n] = false
	}
	for _, g := range s.gates {
		g.state, g.next = false, false
	}
	return s.Settle()
}
