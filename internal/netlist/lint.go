package netlist

import (
	"fmt"
	"sort"
)

// LintIssue is one structural problem found by Lint.
type LintIssue struct {
	Module string
	Kind   string // "undriven", "multidriven", "unknown-ref", "bad-port"
	Detail string
}

func (i LintIssue) String() string {
	return fmt.Sprintf("%s: %s: %s", i.Module, i.Kind, i.Detail)
}

// Lint checks the structural sanity of every module in the design:
// instance references resolve, formal ports exist on the instantiated
// cell/module, every net has exactly one driver, and output ports are
// driven.  Behavioral modules are skipped.
func (d *Design) Lint() []LintIssue {
	return d.LintModules(d.ModuleNames())
}

// LintModules runs Lint's checks on the named modules of d only, in the
// order given; over d.ModuleNames() it is Lint.  Code that assembles a
// design from parts already linted by their builders lints just the
// modules it made.
func (d *Design) LintModules(names []string) []LintIssue {
	l := linter{d: d, formals: make(map[string]map[string]uint64)}
	var issues []LintIssue
	for _, name := range names {
		issues = l.module(issues, name)
	}
	return issues
}

// A net's tally packs its driver count into the high 32 bits and its load
// count into the low 32, so one map update records a binding of any
// direction.
const (
	oneLoad   uint64 = 1
	oneDriver uint64 = 1 << 32
)

// split returns a tally's driver and load counts.
func split(t uint64) (drivers, loads uint64) { return t >> 32, t & (oneDriver - 1) }

// bindTally is what binding one instance port bit of direction dir adds to
// the actual net's tally: an output drives it, an input loads it, an
// inout does both.
func bindTally(dir PortDir) uint64 {
	switch dir {
	case In:
		return oneLoad
	case Out:
		return oneDriver
	}
	return oneDriver + oneLoad
}

// linter holds what one LintModules call learns about the cells and
// modules its instances reference.
type linter struct {
	d *Design
	// formals maps Instance.Of to the port bits of that cell or module,
	// each with its bindTally; nil marks a reference that resolves to
	// neither.
	formals map[string]map[string]uint64
}

func (l *linter) portsOf(of string) map[string]uint64 {
	if f, ok := l.formals[of]; ok {
		return f
	}
	var f map[string]uint64
	if cell, ok := l.d.Lib.Cell(of); ok {
		f = make(map[string]uint64, len(cell.Inputs)+len(cell.Outputs))
		for _, p := range cell.Inputs {
			f[p] |= oneLoad
		}
		for _, p := range cell.Outputs {
			f[p] |= oneDriver
		}
	} else if sub, ok := l.d.Modules[of]; ok {
		bits := 0
		for _, p := range sub.Ports {
			bits += max(p.Width, 1)
		}
		f = make(map[string]uint64, bits)
		for _, p := range sub.Ports {
			t := bindTally(p.Dir)
			for i := 0; i < max(p.Width, 1); i++ {
				f[BitName(p.Name, i, p.Width)] |= t
			}
		}
	}
	l.formals[of] = f
	return f
}

func (l *linter) module(issues []LintIssue, name string) []LintIssue {
	m := l.d.Modules[name]
	if m.Behavioral {
		return issues
	}
	tally := make(map[string]uint64, len(m.Nets))
	// Module input bits drive nets; output bits are loads.
	for _, p := range m.Ports {
		t := oneDriver + oneLoad // InOut counts as both.
		switch p.Dir {
		case In:
			t = oneDriver
		case Out:
			t = oneLoad
		}
		for i := 0; i < max(p.Width, 1); i++ {
			tally[BitName(p.Name, i, p.Width)] += t
		}
	}
	for _, inst := range m.Instances {
		formals := l.portsOf(inst.Of)
		if formals == nil {
			issues = append(issues, LintIssue{m.Name, "unknown-ref",
				fmt.Sprintf("instance %s references unknown cell/module %s", inst.Name, inst.Of)})
			continue
		}
		for formal, actual := range inst.Conns {
			t := formals[formal]
			if t == 0 {
				issues = append(issues, LintIssue{m.Name, "bad-port",
					fmt.Sprintf("instance %s (%s) has no port %s", inst.Name, inst.Of, formal)})
				continue
			}
			tally[actual] += t
		}
	}
	// Each net yields at most one issue, reported in net-name order.
	var flagged []string
	for n := range m.Nets {
		if dr, ld := split(tally[n]); dr > 1 || dr == 0 && ld > 0 {
			flagged = append(flagged, n)
		}
	}
	sort.Strings(flagged)
	for _, n := range flagged {
		if dr, ld := split(tally[n]); dr == 0 {
			issues = append(issues, LintIssue{m.Name, "undriven",
				fmt.Sprintf("net %s has %d loads and no driver", n, ld)})
		} else {
			issues = append(issues, LintIssue{m.Name, "multidriven",
				fmt.Sprintf("net %s has %d drivers", n, dr)})
		}
	}
	return issues
}
