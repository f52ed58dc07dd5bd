package netlist

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseVerilog reads the structural Verilog subset this package emits — the
// paper's Fig. 1 input is an "HDL Design with DFT Information", so the
// platform must be able to consume netlist files, not just produce them.
//
// Supported constructs: module/endmodule with a port list, input/output/
// inout declarations (scalar or [msb:0] buses), wire declarations, and
// named-port instantiations of library cells or other modules.  Escaped
// identifiers ("\name ") carry the flattened bus-bit formals the emitter
// writes.  The "// behavioral IP block, N NAND2-equivalent gates" banner
// the emitter prints restores Behavioral/AreaOverride.
//
// ParseVerilog(EmitVerilogString(d)) reproduces d up to net-declaration
// order (emission is canonical, so emit→parse→emit is a fixed point).
func ParseVerilog(src string, lib *Library) (*Design, error) {
	if lib == nil {
		lib = DefaultLibrary()
	}
	p := &vparser{lib: lib, src: src, line: 1}
	p.advance()
	d := NewDesign("parsed", lib)
	d.Top = ""
	for !p.eof() {
		m, behavioralArea, isBehavioral, err := p.parseModule()
		if p.err != nil {
			// The parser ran into the end of what could be lexed.
			return nil, p.err
		}
		if err != nil {
			return nil, err
		}
		if isBehavioral {
			m.Behavioral = true
			m.AreaOverride = behavioralArea
		}
		if err := d.AddModule(m); err != nil {
			return nil, err
		}
		// The emitter writes the top module last.
		d.Top = m.Name
	}
	if p.err != nil {
		return nil, p.err
	}
	if len(d.Modules) == 0 {
		return nil, fmt.Errorf("netlist: no modules in Verilog source")
	}
	return d, nil
}

type vtoken struct {
	text string
	line int
	// ident marks identifiers (including escaped ones).
	ident bool
}

// vparser reads tokens from src on demand: tok is the next token (the
// zero token at the end), pending holds tokens already lexed behind it,
// and a lexing error ends the token stream and is kept in err.
type vparser struct {
	lib     *Library
	src     string
	i, line int
	tok     vtoken
	pending []vtoken
	atEOF   bool
	err     error
	// pins is reused for each instance's pin list.
	pins Pins
}

// advance makes the next token of the source current.
func (p *vparser) advance() {
	if len(p.pending) > 0 {
		p.tok = p.pending[0]
		p.pending = p.pending[1:]
		return
	}
	if !p.lex() {
		p.tok, p.atEOF = vtoken{}, true
	}
}

// lex scans the next token of the source into tok (or into pending, for a
// behavioral banner's two pseudo-tokens); it returns false at the end of
// the source or on a lexing error, which it keeps in err.
func (p *vparser) lex() bool {
	src := p.src
	for p.i < len(src) {
		i := p.i
		c := src[i]
		switch {
		case c == '\n':
			p.line++
			p.i++
		case c == ' ' || c == '\t' || c == '\r':
			p.i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			j := strings.IndexByte(src[i:], '\n')
			comment := src[i:]
			if j >= 0 {
				comment = src[i : i+j]
				p.i += j
			} else {
				p.i = len(src)
			}
			// Behavioral banner: "// behavioral IP block, N NAND2-...".
			// Encoded as a positional pseudo-token so it binds to the
			// module that immediately follows it.
			if strings.Contains(comment, "behavioral IP block,") {
				fields := strings.Fields(comment)
				for k, f := range fields {
					if f == "block," && k+1 < len(fields) {
						if _, err := strconv.ParseFloat(fields[k+1], 64); err == nil {
							p.pending = append(p.pending,
								vtoken{text: "@behavioral", line: p.line},
								vtoken{text: fields[k+1], line: p.line})
						}
					}
				}
				if len(p.pending) > 0 {
					p.advance()
					return true
				}
			}
		case c == '\\':
			// Escaped identifier: up to the next whitespace.
			j := i + 1
			for j < len(src) && src[j] != ' ' && src[j] != '\t' && src[j] != '\n' && src[j] != '\r' {
				j++
			}
			if j == i+1 {
				p.err = fmt.Errorf("netlist: line %d: empty escaped identifier", p.line)
				return false
			}
			return p.take(i+1, j, true)
		case isVIdentStart(c):
			j := i
			for j < len(src) && isVIdentPart(src[j]) {
				j++
			}
			return p.take(i, j, true)
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			return p.take(i, j, false)
		case strings.IndexByte("()[]{};,.:", c) >= 0:
			return p.take(i, i+1, false)
		default:
			p.err = fmt.Errorf("netlist: line %d: unexpected character %q", p.line, string(c))
			return false
		}
	}
	return false
}

// take makes src[i:j] the current token and moves past it.
func (p *vparser) take(i, j int, ident bool) bool {
	p.tok = vtoken{text: p.src[i:j], line: p.line, ident: ident}
	p.i = j
	return true
}

func isVIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isVIdentPart(c byte) bool {
	return isVIdentStart(c) || (c >= '0' && c <= '9')
}

func (p *vparser) eof() bool { return p.atEOF }

func (p *vparser) peek() vtoken { return p.tok }

func (p *vparser) next() vtoken {
	t := p.tok
	if !p.atEOF {
		p.advance()
	}
	return t
}

func (p *vparser) expect(text string) error {
	t := p.next()
	if t.text != text {
		return fmt.Errorf("netlist: line %d: expected %q, got %q", t.line, text, t.text)
	}
	return nil
}

func (p *vparser) expectIdent() (string, error) {
	t := p.next()
	if !t.ident {
		return "", fmt.Errorf("netlist: line %d: expected identifier, got %q", t.line, t.text)
	}
	return t.text, nil
}

func (p *vparser) expectInt() (int, error) {
	t := p.next()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, fmt.Errorf("netlist: line %d: expected number, got %q", t.line, t.text)
	}
	return n, nil
}

// netRef parses an actual/wire reference: ident, or ident[index].
func (p *vparser) netRef() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	if p.peek().text == "[" {
		p.next()
		idx, err := p.expectInt()
		if err != nil {
			return "", err
		}
		if err := p.expect("]"); err != nil {
			return "", err
		}
		name = name + "[" + strconv.Itoa(idx) + "]"
	}
	return name, nil
}

func (p *vparser) parseModule() (*Module, float64, bool, error) {
	banner := 0.0
	isBehavioral := false
	if p.peek().text == "@behavioral" {
		p.next()
		t := p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, 0, false, fmt.Errorf("netlist: line %d: bad behavioral area %q", t.line, t.text)
		}
		banner = v
		isBehavioral = true
	}
	if err := p.expect("module"); err != nil {
		return nil, 0, false, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, 0, false, err
	}
	m := NewModule(name)
	if err := p.expect("("); err != nil {
		return nil, 0, false, err
	}
	var portOrder []string
	for p.peek().text != ")" {
		pn, err := p.expectIdent()
		if err != nil {
			return nil, 0, false, err
		}
		portOrder = append(portOrder, pn)
		if p.peek().text == "," {
			p.next()
		}
	}
	p.next() // ")"
	if err := p.expect(";"); err != nil {
		return nil, 0, false, err
	}

	dirOf := make(map[string]PortDir)
	widthOf := make(map[string]int)
	for {
		t := p.peek()
		switch t.text {
		case "input", "output", "inout":
			p.next()
			dir := In
			switch t.text {
			case "output":
				dir = Out
			case "inout":
				dir = InOut
			}
			width := 1
			if p.peek().text == "[" {
				p.next()
				msb, err := p.expectInt()
				if err != nil {
					return nil, 0, false, err
				}
				if err := p.expect(":"); err != nil {
					return nil, 0, false, err
				}
				lsb, err := p.expectInt()
				if err != nil {
					return nil, 0, false, err
				}
				if lsb != 0 || msb < 0 {
					return nil, 0, false, fmt.Errorf("netlist: line %d: only [msb:0] ranges supported", t.line)
				}
				if err := p.expect("]"); err != nil {
					return nil, 0, false, err
				}
				width = msb + 1
			}
			for {
				pn, err := p.expectIdent()
				if err != nil {
					return nil, 0, false, err
				}
				dirOf[pn] = dir
				widthOf[pn] = width
				if p.peek().text != "," {
					break
				}
				p.next()
			}
			if err := p.expect(";"); err != nil {
				return nil, 0, false, err
			}
		case "wire":
			p.next()
			for {
				wn, err := p.netRef()
				if err != nil {
					return nil, 0, false, err
				}
				m.AddNet(wn)
				if p.peek().text != "," {
					break
				}
				p.next()
			}
			if err := p.expect(";"); err != nil {
				return nil, 0, false, err
			}
		case "endmodule":
			p.next()
			// Declare ports in header order now that directions are known.
			for _, pn := range portOrder {
				dir, ok := dirOf[pn]
				if !ok {
					return nil, 0, false, fmt.Errorf("netlist: module %s: port %s has no direction", name, pn)
				}
				if err := m.AddPort(pn, dir, widthOf[pn]); err != nil {
					return nil, 0, false, err
				}
			}
			return m, banner, isBehavioral, nil
		default:
			if !t.ident {
				return nil, 0, false, fmt.Errorf("netlist: line %d: unexpected %q", t.line, t.text)
			}
			if err := p.parseInstance(m); err != nil {
				return nil, 0, false, err
			}
		}
	}
}

func (p *vparser) parseInstance(m *Module) error {
	of, err := p.expectIdent()
	if err != nil {
		return err
	}
	inst, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expect("("); err != nil {
		return err
	}
	p.pins = p.pins[:0]
	for p.peek().text != ")" {
		if err := p.expect("."); err != nil {
			return err
		}
		formal, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expect("("); err != nil {
			return err
		}
		actual, err := p.netRef()
		if err != nil {
			return err
		}
		if err := p.expect(")"); err != nil {
			return err
		}
		p.pins = append(p.pins, [2]string{formal, actual})
		if p.peek().text == "," {
			p.next()
		}
	}
	p.next() // ")"
	if err := p.expect(";"); err != nil {
		return err
	}
	_, err2 := m.AddInstance(inst, of, p.pins)
	return err2
}
