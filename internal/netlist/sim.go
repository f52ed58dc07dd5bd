package netlist

import (
	"fmt"
	"sort"
)

// flatGate is one primitive cell instance after hierarchy flattening.
type flatGate struct {
	name  string
	cell  *Cell
	conns map[string]string // formal port bit -> global net name
	state bool              // current stored bit for sequential cells
	next  bool
	// Stuck-at forces injected by Inject (nil when fault-free).
	forceIn  map[string]bool
	forceOut map[string]bool
}

// Flatten elaborates the hierarchy under top into a list of primitive
// gates with globally unique net names ("inst/subinst/net").  Behavioral
// modules cannot be flattened and cause an error.
func flatten(d *Design, top string) ([]*flatGate, error) {
	var gates []*flatGate
	// bind holds, by net id of the module walked, the global name of each
	// port bit the parent connects; "" marks a net local to the module.
	var walk func(modName, prefix string, bind []string) error
	walk = func(modName, prefix string, bind []string) error {
		m, ok := d.Modules[modName]
		if !ok {
			return fmt.Errorf("netlist: unknown module %s", modName)
		}
		if m.Behavioral {
			return fmt.Errorf("netlist: cannot simulate behavioral module %s", modName)
		}
		// Resolve a local net to a global name: port bits use the parent
		// binding, internal nets get the hierarchical prefix.
		resolve := func(id int32) string {
			if g := bind[id]; g != "" {
				return g
			}
			return prefix + m.Nets[id]
		}
		for _, inst := range m.Instances {
			if cell, ok := d.Lib.Cell(inst.Of); ok {
				conns := make(map[string]string, len(inst.Conns))
				for _, c := range inst.Conns {
					conns[c.Formal] = resolve(c.Net)
				}
				gates = append(gates, &flatGate{
					name:  prefix + inst.Name,
					cell:  cell,
					conns: conns,
				})
				continue
			}
			sub, ok := d.Modules[inst.Of]
			if !ok {
				return fmt.Errorf("netlist: %s instantiates unknown %s", modName, inst.Of)
			}
			childBind := make([]string, len(sub.Nets))
			for _, id := range sub.portBits {
				b := sub.Nets[id]
				if a := inst.Actual(b); a >= 0 {
					childBind[id] = resolve(a)
				} else {
					// Unconnected port: give it a private net.
					childBind[id] = prefix + inst.Name + "/" + b + ".nc"
				}
			}
			if err := walk(inst.Of, prefix+inst.Name+"/", childBind); err != nil {
				return err
			}
		}
		return nil
	}
	m, ok := d.Modules[top]
	if !ok {
		return nil, fmt.Errorf("netlist: unknown top module %s", top)
	}
	topBind := make([]string, len(m.Nets))
	for _, id := range m.portBits {
		topBind[id] = m.Nets[id]
	}
	if err := walk(top, "", topBind); err != nil {
		return nil, err
	}
	return gates, nil
}

// Simulator is a two-valued, zero-delay gate-level simulator over a
// flattened module.  Combinational logic settles by repeated sweeps;
// sequential cells update on Tick.  Level-sensitive latches are treated as
// edge-triggered on the rising edge of their enable, which matches how the
// generated wrapper update strobes are pulsed.
type Simulator struct {
	gates  []*flatGate
	values map[string]bool
	// driverOf maps net -> gate output driving it (for settle ordering).
	maxSweeps int
}

// NewSimulator flattens top inside d and returns a simulator with all nets
// initialized to 0.
func NewSimulator(d *Design, top string) (*Simulator, error) {
	gates, err := flatten(d, top)
	if err != nil {
		return nil, err
	}
	s := &Simulator{gates: gates, values: make(map[string]bool)}
	s.maxSweeps = len(gates) + 2
	if err := s.Settle(); err != nil {
		return nil, err
	}
	return s, nil
}

// GateCount reports the number of flattened primitive gates.
func (s *Simulator) GateCount() int { return len(s.gates) }

// Set drives a top-level net (normally an input port bit).
func (s *Simulator) Set(net string, v bool) { s.values[net] = v }

// SetBus drives port bits name[0..len(v)-1] from v (v[0] is bit 0; width-1
// buses use the bare net name, per the BitName convention).
func (s *Simulator) SetBus(name string, v []bool) {
	for i, b := range v {
		s.Set(BitName(name, i, len(v)), b)
	}
}

// Get reads the current value of a net.
func (s *Simulator) Get(net string) bool { return s.values[net] }

// GetBus reads port bits name[0..width-1].
func (s *Simulator) GetBus(name string, width int) []bool {
	v := make([]bool, width)
	for i := range v {
		v[i] = s.Get(BitName(name, i, width))
	}
	return v
}

// Settle propagates combinational logic to a fixpoint.  Sequential cell
// outputs are held at their stored state.  An error is returned if the
// network oscillates (combinational loop).
func (s *Simulator) Settle() error {
	// Expose sequential state on Q/QN first.
	for _, g := range s.gates {
		if g.cell.Seq {
			s.exposeState(g)
		}
	}
	for sweep := 0; sweep < s.maxSweeps; sweep++ {
		changed := false
		for _, g := range s.gates {
			if g.cell.Seq {
				continue
			}
			in := s.gatherInputs(g)
			out := g.cell.Eval(in)
			for formal, v := range out {
				net, ok := g.conns[formal]
				if !ok {
					continue
				}
				if fv, forced := g.forceOut[formal]; forced {
					v = fv
				}
				if s.values[net] != v {
					s.values[net] = v
					changed = true
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("netlist: combinational loop did not settle after %d sweeps", s.maxSweeps)
}

func (s *Simulator) gatherInputs(g *flatGate) map[string]bool {
	in := make(map[string]bool, len(g.cell.Inputs)+1)
	for _, f := range g.cell.Inputs {
		if net, ok := g.conns[f]; ok {
			in[f] = s.values[net]
		}
	}
	for f, v := range g.forceIn {
		in[f] = v
	}
	if g.cell.Seq {
		in["Q"] = g.state
	}
	return in
}

func (s *Simulator) exposeState(g *flatGate) {
	if net, ok := g.conns["Q"]; ok {
		v := g.state
		if fv, forced := g.forceOut["Q"]; forced {
			v = fv
		}
		s.values[net] = v
	}
	if net, ok := g.conns["QN"]; ok {
		v := !g.state
		if fv, forced := g.forceOut["QN"]; forced {
			v = fv
		}
		s.values[net] = v
	}
}

// clockPin reads the clock input of a sequential gate, honouring any
// injected stuck-at force on that pin (a stuck clock never produces an
// edge).
func (s *Simulator) clockPin(g *flatGate) bool {
	if v, forced := g.forceIn[g.cell.Clock]; forced {
		return v
	}
	return s.values[g.conns[g.cell.Clock]]
}

// Tick pulses the named top-level clock net: it settles with the clock low,
// raises the clock, captures every sequential cell whose clock pin sees a
// rising edge (through any gating logic), commits the new states, settles,
// and returns the clock to 0.
func (s *Simulator) Tick(clock string) error {
	s.Set(clock, false)
	if err := s.Settle(); err != nil {
		return err
	}
	// Record pre-edge clock-pin values.
	pre := make([]bool, len(s.gates))
	for i, g := range s.gates {
		if g.cell.Seq {
			pre[i] = s.clockPin(g)
		}
	}
	s.Set(clock, true)
	// Propagate the clock edge through combinational logic without letting
	// any flop output move yet.
	if err := s.Settle(); err != nil {
		return err
	}
	for i, g := range s.gates {
		if !g.cell.Seq {
			continue
		}
		post := s.clockPin(g)
		if !pre[i] && post {
			out := g.cell.Eval(s.gatherInputs(g))
			g.next = out["Q"]
		} else {
			g.next = g.state
		}
	}
	for _, g := range s.gates {
		if g.cell.Seq {
			g.state = g.next
		}
	}
	if err := s.Settle(); err != nil {
		return err
	}
	s.Set(clock, false)
	return s.Settle()
}

// Nets returns all net names known to the simulator, sorted.
func (s *Simulator) Nets() []string {
	seen := make(map[string]bool)
	for _, g := range s.gates {
		for _, n := range g.conns {
			seen[n] = true
		}
	}
	for n := range s.values {
		seen[n] = true
	}
	nets := make([]string, 0, len(seen))
	for n := range seen {
		nets = append(nets, n)
	}
	sort.Strings(nets)
	return nets
}

// LoadState forces the stored bit of the sequential cell instance with the
// given flattened name.  It is used by tests to preset registers.
func (s *Simulator) LoadState(flatName string, v bool) error {
	for _, g := range s.gates {
		if g.name == flatName && g.cell.Seq {
			g.state = v
			s.exposeState(g)
			return nil
		}
	}
	return fmt.Errorf("netlist: no sequential cell named %s", flatName)
}
