package netlist

import (
	"fmt"
	"strconv"
)

// Builder helpers shared by the hardware generators (wrapper, TAM,
// controller, BIST).  All helpers create instances inside an existing
// module; net names passed in must already exist or are created on demand.

// AddMuxTree builds a 2^k-to-1 multiplexer tree from MUX2 cells selecting
// among inputs with select nets sel (sel[0] = least significant).  The tree
// output is wired to out.  Missing inputs (len(inputs) not a power of two)
// are padded with the last input.  It returns the number of MUX2 cells
// created.
func AddMuxTree(m *Module, name string, inputs []string, sel []string, out string) (int, error) {
	if len(inputs) == 0 {
		return 0, fmt.Errorf("netlist: mux tree %s has no inputs", name)
	}
	need := 1 << len(sel)
	if len(inputs) > need {
		return 0, fmt.Errorf("netlist: mux tree %s: %d inputs need %d select bits",
			name, len(inputs), len(sel))
	}
	level := make([]string, need)
	copy(level, inputs)
	for i := len(inputs); i < need; i++ {
		level[i] = inputs[len(inputs)-1]
	}
	count := 0
	for li, s := range sel {
		next := make([]string, len(level)/2)
		for j := range next {
			lj := strconv.Itoa(li) + "_" + strconv.Itoa(j)
			var o string
			if len(next) == 1 && li == len(sel)-1 {
				o = out
			} else {
				o = name + "_l" + lj
			}
			m.AddNet(o)
			if _, err := m.AddInstance(name+"_m"+lj, CellMux2,
				Pins{{"A", level[2*j]}, {"B", level[2*j+1]}, {"S", s}, {"Z", o}}); err != nil {
				return count, err
			}
			count++
			next[j] = o
		}
		level = next
	}
	return count, nil
}

// AddDecoder builds a k-to-2^k one-hot decoder with an enable: outs[i] goes
// high when the sel nets encode i and en is high.  It returns the number of
// cells created.  Implementation: per output, an AND tree over the (possibly
// inverted) select bits and the enable.
func AddDecoder(m *Module, name string, sel []string, en string, outs []string) (int, error) {
	if len(outs) > 1<<len(sel) {
		return 0, fmt.Errorf("netlist: decoder %s: %d outputs exceed 2^%d", name, len(outs), len(sel))
	}
	count := 0
	// Shared inverted select lines.
	inv := make([]string, len(sel))
	for i, s := range sel {
		is := strconv.Itoa(i)
		inv[i] = name + "_n" + is
		m.AddNet(inv[i])
		if _, err := m.AddInstance(name+"_inv"+is, CellInv,
			Pins{{"A", s}, {"Z", inv[i]}}); err != nil {
			return count, err
		}
		count++
	}
	for code, out := range outs {
		terms := make([]string, 0, len(sel)+1)
		if en != "" {
			terms = append(terms, en)
		}
		for b, s := range sel {
			if code&(1<<b) != 0 {
				terms = append(terms, s)
			} else {
				terms = append(terms, inv[b])
			}
		}
		n, err := AddAndTree(m, name+"_o"+strconv.Itoa(code), terms, out)
		if err != nil {
			return count, err
		}
		count += n
	}
	return count, nil
}

// AddAndTree ANDs all input nets onto out using AND2 cells (BUF for a single
// input).  It returns the number of cells created.
func AddAndTree(m *Module, name string, inputs []string, out string) (int, error) {
	return addTree(m, name, CellAnd2, CellBuf, inputs, out)
}

// AddOrTree ORs all input nets onto out using OR2 cells (BUF for a single
// input).  It returns the number of cells created.
func AddOrTree(m *Module, name string, inputs []string, out string) (int, error) {
	return addTree(m, name, CellOr2, CellBuf, inputs, out)
}

func addTree(m *Module, name, cell2, cell1 string, inputs []string, out string) (int, error) {
	if len(inputs) == 0 {
		return 0, fmt.Errorf("netlist: tree %s has no inputs", name)
	}
	count := 0
	level := inputs
	round := 0
	for len(level) > 1 {
		next := make([]string, 0, (len(level)+1)/2)
		rs := strconv.Itoa(round) + "_"
		for j := 0; j+1 < len(level); j += 2 {
			js := strconv.Itoa(j / 2)
			var o string
			if len(level) == 2 {
				o = out
			} else {
				o = name + "_t" + rs + js
			}
			m.AddNet(o)
			if _, err := m.AddInstance(name+"_g"+rs+js, cell2,
				Pins{{"A", level[j]}, {"B", level[j+1]}, {"Z", o}}); err != nil {
				return count, err
			}
			count++
			next = append(next, o)
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		round++
	}
	if len(inputs) == 1 {
		m.AddNet(out)
		if _, err := m.AddInstance(name+"_buf", cell1,
			Pins{{"A", inputs[0]}, {"Z", out}}); err != nil {
			return count, err
		}
		count++
	}
	return count, nil
}

// AddRegister builds an n-bit DFF register named name, clocked by ck, with
// input nets d and output nets q (all length n).  It returns the number of
// cells created.
func AddRegister(m *Module, name, ck string, d, q []string) (int, error) {
	if len(d) != len(q) {
		return 0, fmt.Errorf("netlist: register %s: %d inputs vs %d outputs", name, len(d), len(q))
	}
	for i := range d {
		m.AddNet(d[i])
		m.AddNet(q[i])
		if _, err := m.AddInstance(name+"_ff"+strconv.Itoa(i), CellDFF,
			Pins{{"D", d[i]}, {"CK", ck}, {"Q", q[i]}}); err != nil {
			return i, err
		}
	}
	return len(d), nil
}
