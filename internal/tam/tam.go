// Package tam models the test access mechanism of STEAC (Fig. 1 "TAM
// Generator"): the multiplexed TAM bus that routes chip-level test data
// pins to the wrapped cores session by session, and the structural
// generation of the TAM multiplexer whose hardware cost the paper reports
// (about 132 NAND2-equivalent gates on the DSC chip).
package tam

import (
	"fmt"
	"sort"

	"steac/internal/netlist"
)

// Route assigns a contiguous slice of the chip's TAM pins to one core
// during one session.
type Route struct {
	Session int
	Core    string
	// Width is the number of TAM wires (each wire = one wsi pin + one wso
	// pin at chip level).
	Width int
	// PinLo is the first TAM wire index used.
	PinLo int
}

// Spec is the complete TAM configuration for a chip.
type Spec struct {
	// Width is the chip-level TAM width in wires.
	Width    int
	Sessions int
	Routes   []Route
}

// Validate checks that routes stay inside the bus and never overlap within
// a session.
func (s Spec) Validate() error {
	if s.Width < 1 {
		return fmt.Errorf("tam: width %d < 1", s.Width)
	}
	if s.Sessions < 1 {
		return fmt.Errorf("tam: %d sessions", s.Sessions)
	}
	used := make(map[int][]bool) // session -> wire usage
	for _, r := range s.Routes {
		if r.Session < 0 || r.Session >= s.Sessions {
			return fmt.Errorf("tam: route for %s names session %d of %d", r.Core, r.Session, s.Sessions)
		}
		if r.Width < 1 || r.PinLo < 0 || r.PinLo+r.Width > s.Width {
			return fmt.Errorf("tam: route for %s (%d+%d) exceeds bus width %d",
				r.Core, r.PinLo, r.Width, s.Width)
		}
		u := used[r.Session]
		if u == nil {
			u = make([]bool, s.Width)
			used[r.Session] = u
		}
		for w := r.PinLo; w < r.PinLo+r.Width; w++ {
			if u[w] {
				return fmt.Errorf("tam: session %d wire %d double-booked", r.Session, w)
			}
			u[w] = true
		}
	}
	return nil
}

// CoresOf returns the distinct core names routed, sorted.
func (s Spec) CoresOf() []string {
	set := make(map[string]bool)
	for _, r := range s.Routes {
		set[r.Core] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RouteFor returns the route of a core in a session, if any.
func (s Spec) RouteFor(session int, core string) (Route, bool) {
	for _, r := range s.Routes {
		if r.Session == session && r.Core == core {
			return r, true
		}
	}
	return Route{}, false
}

// sessionBits returns the width of the session-select input.
func (s Spec) sessionBits() int {
	b := 0
	for v := s.Sessions - 1; v > 0; v >>= 1 {
		b++
	}
	if b == 0 {
		b = 1
	}
	return b
}

// Generate builds the TAM multiplexer module: chip TAM-in pins fan out to
// the cores' wsi terminals (gated per session so inactive cores see 0), and
// each chip TAM-out pin muxes among the wso terminals of the cores that own
// that wire in some session.
//
// Ports: TIN[width] (chip TAM in), SESS[sessionBits] (session select from
// the test controller), per-core buses <core>_WSI[w] (out) and
// <core>_WSO[w] (in), and TOUT[width] (chip TAM out).
func Generate(d *netlist.Design, name string, spec Spec) (*netlist.Module, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := netlist.NewModule(name)
	m.MustPort("TIN", netlist.In, spec.Width)
	m.MustPort("SESS", netlist.In, spec.sessionBits())
	m.MustPort("TOUT", netlist.Out, spec.Width)

	// Per-core route bookkeeping: width of the core-side bus is the
	// maximum width it is ever granted.
	coreWidth := make(map[string]int)
	for _, r := range spec.Routes {
		if r.Width > coreWidth[r.Core] {
			coreWidth[r.Core] = r.Width
		}
	}
	cores := spec.CoresOf()
	for _, c := range cores {
		m.MustPort(c+"_WSI", netlist.Out, coreWidth[c])
		m.MustPort(c+"_WSO", netlist.In, coreWidth[c])
	}

	// Session one-hot decode, shared.
	hot := make([]string, spec.Sessions)
	for i := range hot {
		hot[i] = fmt.Sprintf("sess%d", i)
		m.AddNet(hot[i])
	}
	sessSel := netlist.Port{Name: "SESS", Width: spec.sessionBits()}.Bits()
	if _, err := netlist.AddDecoder(m, "sdec", sessSel, "", hot); err != nil {
		return nil, err
	}

	// Core-side WSI: for each core wire, OR over sessions of
	// (session-hot AND chip TIN pin routed to it).
	for _, c := range cores {
		for w := 0; w < coreWidth[c]; w++ {
			var terms []string
			for _, r := range spec.Routes {
				if r.Core != c || w >= r.Width {
					continue
				}
				t := fmt.Sprintf("%s_i%d_s%d", c, w, r.Session)
				m.AddNet(t)
				m.MustInstance("g_"+t, netlist.CellAnd2, netlist.Pins{
					{"A", hot[r.Session]},
					{"B", netlist.BitName("TIN", r.PinLo+w, spec.Width)},
					{"Z", t},
				})
				terms = append(terms, t)
			}
			out := netlist.BitName(c+"_WSI", w, coreWidth[c])
			if len(terms) == 0 {
				m.MustInstance("tie_"+c+fmt.Sprint(w), netlist.CellTie0,
					netlist.Pins{{"Z", out}})
				continue
			}
			if _, err := netlist.AddOrTree(m, "o_"+c+fmt.Sprint(w), terms, out); err != nil {
				return nil, err
			}
		}
	}

	// Chip-side TOUT: per chip wire, OR over sessions of (hot AND owning
	// core's wso).
	for w := 0; w < spec.Width; w++ {
		var terms []string
		for _, r := range spec.Routes {
			if w < r.PinLo || w >= r.PinLo+r.Width {
				continue
			}
			t := fmt.Sprintf("t%d_s%d", w, r.Session)
			m.AddNet(t)
			m.MustInstance("g_"+t, netlist.CellAnd2, netlist.Pins{
				{"A", hot[r.Session]},
				{"B", netlist.BitName(r.Core+"_WSO", w-r.PinLo, coreWidth[r.Core])},
				{"Z", t},
			})
			terms = append(terms, t)
		}
		out := netlist.BitName("TOUT", w, spec.Width)
		if len(terms) == 0 {
			m.MustInstance(fmt.Sprintf("tieo%d", w), netlist.CellTie0,
				netlist.Pins{{"Z", out}})
			continue
		}
		if _, err := netlist.AddOrTree(m, fmt.Sprintf("ot%d", w), terms, out); err != nil {
			return nil, err
		}
	}
	if err := d.AddModule(m); err != nil {
		return nil, err
	}
	return m, nil
}
