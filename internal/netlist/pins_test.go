package netlist

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestAddInstanceDuplicateFormal(t *testing.T) {
	m := NewModule("m")
	_, err := m.AddInstance("u1", CellAnd2, Pins{{"A", "a"}, {"B", "b"}, {"A", "c"}, {"Z", "z"}})
	if err == nil {
		t.Fatal("a formal bound twice was accepted")
	}
	if msg := err.Error(); !strings.Contains(msg, "u1") || !strings.Contains(msg, "formal A") {
		t.Fatalf("error %q does not name the instance and the formal", msg)
	}
	if m.Instance("u1") != nil || len(m.Instances) != 0 || len(m.Nets) != 0 {
		t.Fatal("a refused instance left an instance or nets behind")
	}
	d := NewDesign("d", nil)
	d.MustAddModule(m)
	v, err := d.EmitVerilogString()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(v, ".A(") {
		t.Fatalf("refused binding emitted:\n%s", v)
	}
}

// randomFormal draws a formal name from an alphabet that puts upper case,
// lower case, digits, brackets and a non-ASCII byte in different bytewise
// order than a case-folding or locale sort would.
func randomFormal(rng *rand.Rand) string {
	const alphabet = "AZaz09_[]\xe9"
	b := make([]byte, 1+rng.Intn(4))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func TestConnsSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 500; trial++ {
		m := NewModule("m")
		seen := make(map[string]bool)
		var pins Pins
		for n := rng.Intn(12); len(pins) < n; {
			f := randomFormal(rng)
			if seen[f] {
				continue
			}
			seen[f] = true
			pins = append(pins, [2]string{f, "n" + strconv.Itoa(rng.Intn(6))})
		}
		inst, err := m.AddInstance("u", "cell", pins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(inst.Conns) != len(pins) {
			t.Fatalf("trial %d: %d conns for %d pins", trial, len(inst.Conns), len(pins))
		}
		for i := 1; i < len(inst.Conns); i++ {
			if !(inst.Conns[i-1].Formal < inst.Conns[i].Formal) {
				t.Fatalf("trial %d: conns not sorted bytewise: %q before %q",
					trial, inst.Conns[i-1].Formal, inst.Conns[i].Formal)
			}
		}
		for _, p := range pins {
			id := inst.Actual(p[0])
			if id < 0 || m.Nets[id] != p[1] || m.NetID(p[1]) != id {
				t.Fatalf("trial %d: Actual(%q) = %d, want the id of %q", trial, p[0], id, p[1])
			}
		}
		for k := 0; k < 5; k++ {
			if f := randomFormal(rng); !seen[f] && inst.Actual(f) != -1 {
				t.Fatalf("trial %d: unbound formal %q resolves to %d", trial, f, inst.Actual(f))
			}
		}
		if got := m.PinsOf(inst); len(got) != len(pins) {
			t.Fatalf("trial %d: PinsOf has %d pins, want %d", trial, len(got), len(pins))
		}
		if len(pins) > 0 {
			dup := append(Pins{pins[rng.Intn(len(pins))]}, pins...)
			if _, err := m.AddInstance("v", "cell", dup); err == nil {
				t.Fatalf("trial %d: duplicate formal accepted", trial)
			}
		}
	}
}

// randomDesign builds a design of several modules over library cells and
// earlier modules, with bus ports, unconnected pins, floating wires,
// escaped net and instance names and one behavioral block.
func randomDesign(rng *rand.Rand) *Design {
	d := NewDesign("rand", nil)
	cells := []string{CellInv, CellBuf, CellAnd2, CellNand2, CellOr2, CellXor2, CellMux2, CellDFF}
	ip := NewModule("ip")
	ip.Behavioral = true
	ip.AreaOverride = float64(100 + rng.Intn(900))
	ip.MustPort("clk", In, 1)
	ip.MustPort("dout", Out, 1+rng.Intn(3))
	d.MustAddModule(ip)
	subs := []*Module{ip}
	nMods := 3 + rng.Intn(3)
	for mi := 0; mi < nMods; mi++ {
		m := NewModule("m" + strconv.Itoa(mi))
		for pi, n := 0, 1+rng.Intn(4); pi < n; pi++ {
			dir := []PortDir{In, Out, InOut}[rng.Intn(3)]
			m.MustPort("p"+strconv.Itoa(pi), dir, 1+rng.Intn(3)*rng.Intn(2))
		}
		var pool []string
		for _, p := range m.Ports {
			pool = append(pool, p.Bits()...)
		}
		for k, n := 0, 2+rng.Intn(5); k < n; k++ {
			// Internal nets, some of which need escaping.
			pool = append(pool, []string{"w", "n/", "x[", "t.", "9k"}[rng.Intn(5)]+strconv.Itoa(k))
		}
		if rng.Intn(2) == 0 {
			m.AddNet("float" + strconv.Itoa(mi))
		}
		for ii, n := 0, 1+rng.Intn(8); ii < n; ii++ {
			name := []string{"u", "g/", "i$"}[rng.Intn(3)] + strconv.Itoa(ii)
			var of string
			var formals []string
			if rng.Intn(3) == 0 {
				sub := subs[rng.Intn(len(subs))]
				of = sub.Name
				for _, p := range sub.Ports {
					formals = append(formals, p.Bits()...)
				}
			} else {
				of = cells[rng.Intn(len(cells))]
				c, _ := d.Lib.Cell(of)
				formals = append(append(formals, c.Inputs...), c.Outputs...)
			}
			var pins Pins
			for _, f := range formals {
				if rng.Intn(5) != 0 {
					pins = append(pins, [2]string{f, pool[rng.Intn(len(pool))]})
				}
			}
			m.MustInstance(name, of, pins)
		}
		d.MustAddModule(m)
		subs = append(subs, m)
	}
	d.Top = subs[len(subs)-1].Name
	return d
}

func TestRandomDesignRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		roundTrip(t, randomDesign(rand.New(rand.NewSource(seed))))
	}
}
