package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// EmitVerilog writes a structural Verilog view of the whole design, top
// module last (compilation order), to w.
func (d *Design) EmitVerilog(w io.Writer) error {
	names := d.ModuleNames()
	// Emit non-top modules first, then top.
	ordered := make([]string, 0, len(names))
	for _, n := range names {
		if n != d.Top {
			ordered = append(ordered, n)
		}
	}
	if d.Top != "" {
		ordered = append(ordered, d.Top)
	}
	bw := bufio.NewWriter(w)
	for _, n := range ordered {
		d.emitModule(bw, d.Modules[n])
	}
	return bw.Flush()
}

// writeName writes a net/instance/formal name as a Verilog identifier:
// plain names pass through, anything with characters outside
// [A-Za-z0-9_$] (bus bits of formals, hierarchical junctions) becomes an
// escaped identifier ("\name " with the mandatory trailing space), which
// the parser in this package reads back verbatim — emission round-trips.
func writeName(w *bufio.Writer, name string) {
	plain := len(name) > 0 && !(name[0] >= '0' && name[0] <= '9')
	for i := 0; plain && i < len(name); i++ {
		c := name[i]
		plain = c == '_' || c == '$' || (c >= '0' && c <= '9') ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
	}
	if plain {
		w.WriteString(name)
		return
	}
	w.WriteByte('\\')
	w.WriteString(name)
	w.WriteByte(' ')
}

// Port-bit kinds of a net in emitModule (0: not a port bit).
const (
	scalarBit uint8 = 1 + iota
	busBit
)

// emitModule writes one module declaration; a write error is kept in w
// and returned by its Flush.
func (d *Design) emitModule(w *bufio.Writer, m *Module) {
	if m.Behavioral {
		fmt.Fprintf(w, "// behavioral IP block, %0.f NAND2-equivalent gates\n", m.AreaOverride)
	}
	w.WriteString("module ")
	writeName(w, m.Name)
	w.WriteByte('(')
	for i, p := range m.Ports {
		if i > 0 {
			w.WriteString(", ")
		}
		writeName(w, p.Name)
	}
	w.WriteString(");\n")
	for _, p := range m.Ports {
		w.WriteString("  ")
		w.WriteString(p.Dir.String())
		if p.Width > 1 {
			w.WriteString(" [")
			w.WriteString(strconv.Itoa(p.Width - 1))
			w.WriteString(":0]")
		}
		w.WriteByte(' ')
		writeName(w, p.Name)
		w.WriteString(";\n")
	}
	// Port bits are not declared as wires, and a bus bit is written as a
	// bit-select of its port (escaped like any name) rather than as one
	// escaped name.
	portBit := make([]uint8, len(m.Nets))
	k := 0
	for _, p := range m.Ports {
		kind := scalarBit
		if p.Width > 1 {
			kind = busBit
		}
		for range p.Width {
			portBit[m.portBits[k]] = kind
			k++
		}
	}
	wires := make([]string, 0, len(m.Nets))
	for id, n := range m.Nets {
		if portBit[id] == 0 {
			wires = append(wires, n)
		}
	}
	sort.Strings(wires)
	for _, n := range wires {
		w.WriteString("  wire ")
		writeName(w, n)
		w.WriteString(";\n")
	}
	for _, inst := range m.Instances {
		w.WriteString("  ")
		w.WriteString(inst.Of)
		w.WriteByte(' ')
		writeName(w, inst.Name)
		w.WriteString(" (")
		for i, c := range inst.Conns {
			if i > 0 {
				w.WriteString(", ")
			}
			w.WriteByte('.')
			writeName(w, c.Formal)
			w.WriteByte('(')
			if n := m.Nets[c.Net]; portBit[c.Net] == busBit {
				i := strings.LastIndexByte(n, '[')
				writeName(w, n[:i])
				w.WriteString(n[i:])
			} else {
				writeName(w, n)
			}
			w.WriteByte(')')
		}
		w.WriteString(");\n")
	}
	w.WriteString("endmodule\n\n")
}

// EmitVerilogString renders the design to a string; it is a convenience
// wrapper over EmitVerilog for reports and tests.
func (d *Design) EmitVerilogString() (string, error) {
	var sb strings.Builder
	if err := d.EmitVerilog(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
