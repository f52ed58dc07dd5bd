package netlist

import (
	"fmt"
	"slices"
	"strings"
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
	l := linter{d: d, formals: make(map[string][]formal)}
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

// formal is one port bit of a cell or module with its bindTally.
type formal struct {
	name  string
	tally uint64
}

// linter holds what one LintModules call learns about the cells and
// modules its instances reference.
type linter struct {
	d *Design
	// formals maps Instance.Of to the port bits of that cell or module,
	// sorted bytewise by name like Instance.Conns; nil marks a reference
	// that resolves to neither.
	formals map[string][]formal
}

func (l *linter) portsOf(of string) []formal {
	if f, ok := l.formals[of]; ok {
		return f
	}
	var f []formal
	if cell, ok := l.d.Lib.Cell(of); ok {
		f = make([]formal, 0, len(cell.Inputs)+len(cell.Outputs))
		for _, p := range cell.Inputs {
			f = append(f, formal{p, oneLoad})
		}
		for _, p := range cell.Outputs {
			f = append(f, formal{p, oneDriver})
		}
	} else if sub, ok := l.d.Modules[of]; ok {
		f = make([]formal, 0, len(sub.portBits))
		k := 0
		for _, p := range sub.Ports {
			t := bindTally(p.Dir)
			for range p.Width {
				f = append(f, formal{sub.Nets[sub.portBits[k]], t})
				k++
			}
		}
	} else {
		l.formals[of] = nil
		return nil
	}
	// A name listed twice (a pin that is both input and output) binds
	// with both tallies.
	slices.SortFunc(f, func(a, b formal) int { return strings.Compare(a.name, b.name) })
	uniq := f[:0]
	for _, x := range f {
		if n := len(uniq); n > 0 && uniq[n-1].name == x.name {
			uniq[n-1].tally |= x.tally
			continue
		}
		uniq = append(uniq, x)
	}
	f = uniq
	l.formals[of] = f
	return f
}

func (l *linter) module(issues []LintIssue, name string) []LintIssue {
	m := l.d.Modules[name]
	if m.Behavioral {
		return issues
	}
	tally := make([]uint64, len(m.Nets))
	// Module input bits drive nets; output bits are loads.
	k := 0
	for _, p := range m.Ports {
		t := oneDriver + oneLoad // InOut counts as both.
		switch p.Dir {
		case In:
			t = oneDriver
		case Out:
			t = oneLoad
		}
		for range p.Width {
			tally[m.portBits[k]] += t
			k++
		}
	}
	for _, inst := range m.Instances {
		formals := l.portsOf(inst.Of)
		if formals == nil {
			issues = append(issues, LintIssue{m.Name, "unknown-ref",
				fmt.Sprintf("instance %s references unknown cell/module %s", inst.Name, inst.Of)})
			continue
		}
		// Conns and formals are both sorted by name: one merge pass
		// tallies the bound nets and finds the bad ports in name order.
		j := 0
		for _, c := range inst.Conns {
			for j < len(formals) && formals[j].name < c.Formal {
				j++
			}
			if j < len(formals) && formals[j].name == c.Formal {
				tally[c.Net] += formals[j].tally
				continue
			}
			issues = append(issues, LintIssue{m.Name, "bad-port",
				fmt.Sprintf("instance %s (%s) has no port %s", inst.Name, inst.Of, c.Formal)})
		}
	}
	// Each net yields at most one issue, reported in net-name order.
	var flagged []int32
	for id, t := range tally {
		if dr, ld := split(t); dr > 1 || dr == 0 && ld > 0 {
			flagged = append(flagged, int32(id))
		}
	}
	slices.SortFunc(flagged, func(a, b int32) int { return strings.Compare(m.Nets[a], m.Nets[b]) })
	for _, id := range flagged {
		if dr, ld := split(tally[id]); dr == 0 {
			issues = append(issues, LintIssue{m.Name, "undriven",
				fmt.Sprintf("net %s has %d loads and no driver", m.Nets[id], ld)})
		} else {
			issues = append(issues, LintIssue{m.Name, "multidriven",
				fmt.Sprintf("net %s has %d drivers", m.Nets[id], dr)})
		}
	}
	return issues
}
