// Package netlist provides the structural-netlist substrate used by every
// hardware generator in this repository (test wrappers, TAM multiplexers,
// test controllers, and memory-BIST circuits).
//
// A Design is a set of Modules.  A Module has Ports, Nets and Instances; an
// Instance refers either to a primitive cell from the Library or to another
// Module in the same Design.  Area is accounted in two-input-NAND (NAND2)
// gate equivalents, the unit the paper reports (WBR cell = 26 NAND2 gates,
// Test Controller = 371 gates, TAM multiplexer = 132 gates).
//
// The package also provides Verilog-style emission (Emit*), structural lint
// (Module.Lint, Design.Lint) and a two-valued gate-level simulator
// (Simulator) that is used by the tests to verify generated circuitry
// cycle-by-cycle.
package netlist

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// PortDir is the direction of a module or cell port.
type PortDir int

// Port directions.
const (
	In PortDir = iota
	Out
	InOut
)

// String returns the Verilog keyword for the direction.
func (d PortDir) String() string {
	switch d {
	case In:
		return "input"
	case Out:
		return "output"
	case InOut:
		return "inout"
	}
	return fmt.Sprintf("PortDir(%d)", int(d))
}

// Port is a named, directed connection point of a Module.
// Width > 1 describes a bus; bit i of a bus port is referenced from nets
// as "name[i]".
type Port struct {
	Name  string
	Dir   PortDir
	Width int
}

// BitName returns the flattened net name of bit i of a width-wide bus
// port: the bare name when the width is 1, otherwise "name[i]".
func BitName(name string, i, width int) string {
	if width <= 1 {
		return name
	}
	return name + "[" + strconv.Itoa(i) + "]"
}

// Bits returns the flattened single-bit net names of the port
// ("p" for width 1, otherwise "p[0]".."p[w-1]").
func (p Port) Bits() []string {
	if p.Width <= 1 {
		return []string{p.Name}
	}
	bits := make([]string, p.Width)
	for i := range bits {
		bits[i] = BitName(p.Name, i, p.Width)
	}
	return bits
}

// Pins is the pin list an instance is added with: each element binds a
// formal port bit of the instantiated cell or module (element 0) to an
// actual net name in the parent module (element 1), as in
// Pins{{"A", a}, {"Z", z}}.  Order does not matter; a formal may appear
// once.
type Pins [][2]string

// Conn binds one formal port bit of an instance to a net of its module.
type Conn struct {
	Formal string
	// Net is the id of the actual net: an index into the module's Nets.
	Net int32
}

// Instance is the use of a primitive cell or of another module.
type Instance struct {
	Name string
	// Of is the primitive cell name or module name instantiated.
	Of string
	// Conns binds formal port-bit names of the instantiated cell/module to
	// nets of the parent module, sorted bytewise by Formal.
	Conns []Conn
}

// Actual returns the id of the net bound to formal, or -1 if the formal is
// unconnected.
func (inst *Instance) Actual(formal string) int32 {
	i, ok := slices.BinarySearchFunc(inst.Conns, formal, func(c Conn, f string) int {
		return strings.Compare(c.Formal, f)
	})
	if !ok {
		return -1
	}
	return inst.Conns[i].Net
}

// Module is a hierarchical netlist node.
type Module struct {
	Name  string
	Ports []Port
	// Nets holds every single-bit net name, indexed by net id in creation
	// order.  Bus ports are flattened to one net per bit.
	Nets      []string
	Instances []*Instance

	// Behavioral marks IP blocks whose internals we do not elaborate
	// (e.g. the JPEG codec of the DSC chip).  Their area is AreaOverride.
	Behavioral bool
	// AreaOverride is the NAND2-equivalent gate count of a Behavioral
	// module.
	AreaOverride float64
	// Attrs carries free-form annotations used by reports.
	Attrs map[string]string

	ports  map[string]*Port
	insts  map[string]*Instance
	netIDs map[string]int32
	// portBits holds the net id of every port bit, port by port in
	// declaration order, bit 0 first.
	portBits []int32
	// aliasOf names the module whose body this one shares (see Alias).
	aliasOf string
}

// NewModule creates an empty module with the given name.
func NewModule(name string) *Module {
	return &Module{
		Name:   name,
		Attrs:  make(map[string]string),
		ports:  make(map[string]*Port),
		insts:  make(map[string]*Instance),
		netIDs: make(map[string]int32),
	}
}

// AddPort declares a port and its backing nets.  It returns an error if the
// name is already used.
func (m *Module) AddPort(name string, dir PortDir, width int) error {
	if width < 1 {
		return fmt.Errorf("netlist: port %s.%s: width %d < 1", m.Name, name, width)
	}
	if _, ok := m.ports[name]; ok {
		return fmt.Errorf("netlist: duplicate port %s.%s", m.Name, name)
	}
	p := Port{Name: name, Dir: dir, Width: width}
	m.Ports = append(m.Ports, p)
	m.ports[name] = &m.Ports[len(m.Ports)-1]
	for i := 0; i < width; i++ {
		m.portBits = append(m.portBits, m.AddNet(BitName(name, i, width)))
	}
	return nil
}

// MustPort is AddPort that panics on error; intended for generator code
// whose inputs are program-constructed and cannot legitimately collide.
func (m *Module) MustPort(name string, dir PortDir, width int) {
	if err := m.AddPort(name, dir, width); err != nil {
		panic(err)
	}
}

// Port returns the declared port with the given name, or nil.
func (m *Module) Port(name string) *Port { return m.ports[name] }

// AddNet declares a single-bit net and returns its id.  Adding an existing
// net returns the id it already has, so generators can freely re-declare
// junction nets.
func (m *Module) AddNet(name string) int32 {
	if id, ok := m.netIDs[name]; ok {
		return id
	}
	id := int32(len(m.Nets))
	m.Nets = append(m.Nets, name)
	m.netIDs[name] = id
	return id
}

// NetID returns the id of the named net, or -1 if the module has no such
// net.
func (m *Module) NetID(name string) int32 {
	if id, ok := m.netIDs[name]; ok {
		return id
	}
	return -1
}

// AddInstance instantiates cell or module `of` under the given instance
// name, binding each formal port bit of pins to its actual net.  Actual
// nets are created on demand.  A formal bound twice in pins is an error.
func (m *Module) AddInstance(name, of string, pins Pins) (*Instance, error) {
	if _, ok := m.insts[name]; ok {
		return nil, fmt.Errorf("netlist: duplicate instance %s in %s", name, m.Name)
	}
	// Sort with each Net holding its pin's index; it becomes the net id
	// once no formal repeats.
	conns := make([]Conn, len(pins))
	for i, p := range pins {
		conns[i] = Conn{Formal: p[0], Net: int32(i)}
	}
	slices.SortFunc(conns, func(a, b Conn) int { return strings.Compare(a.Formal, b.Formal) })
	for i := 1; i < len(conns); i++ {
		if conns[i].Formal == conns[i-1].Formal {
			return nil, fmt.Errorf("netlist: instance %s in %s binds formal %s twice", name, m.Name, conns[i].Formal)
		}
	}
	for i := range conns {
		conns[i].Net = m.AddNet(pins[conns[i].Net][1])
	}
	inst := &Instance{Name: name, Of: of, Conns: conns}
	m.Instances = append(m.Instances, inst)
	m.insts[name] = inst
	return inst, nil
}

// PinsOf returns the pin list of inst, one of m's instances, with net
// names in place of ids: adding it to another module binds the same nets
// by name.
func (m *Module) PinsOf(inst *Instance) Pins {
	pins := make(Pins, len(inst.Conns))
	for i, c := range inst.Conns {
		pins[i] = [2]string{c.Formal, m.Nets[c.Net]}
	}
	return pins
}

// MustInstance is AddInstance that panics on error.
func (m *Module) MustInstance(name, of string, pins Pins) *Instance {
	inst, err := m.AddInstance(name, of, pins)
	if err != nil {
		panic(err)
	}
	return inst
}

// Instance returns the instance with the given name, or nil.
func (m *Module) Instance(name string) *Instance { return m.insts[name] }

// Design is a set of modules with a designated top.
type Design struct {
	Name    string
	Top     string
	Modules map[string]*Module
	Lib     *Library
}

// NewDesign creates an empty design using lib for primitive cells.
// A nil lib selects the DefaultLibrary.
func NewDesign(name string, lib *Library) *Design {
	if lib == nil {
		lib = DefaultLibrary()
	}
	return &Design{Name: name, Modules: make(map[string]*Module), Lib: lib}
}

// AddModule registers a module; the first module added becomes the top
// unless Top is set explicitly.
func (d *Design) AddModule(m *Module) error {
	if _, ok := d.Modules[m.Name]; ok {
		return fmt.Errorf("netlist: duplicate module %s in design %s", m.Name, d.Name)
	}
	d.Modules[m.Name] = m
	if d.Top == "" {
		d.Top = m.Name
	}
	return nil
}

// MustAddModule is AddModule that panics on error.
func (d *Design) MustAddModule(m *Module) {
	if err := d.AddModule(m); err != nil {
		panic(err)
	}
}

// Module returns the named module or nil.
func (d *Design) Module(name string) *Module { return d.Modules[name] }

// TopModule returns the top module or nil.
func (d *Design) TopModule() *Module { return d.Modules[d.Top] }

// ModuleNames returns the module names in sorted order (deterministic
// iteration for emission and reports).
func (d *Design) ModuleNames() []string {
	names := make([]string, 0, len(d.Modules))
	for n := range d.Modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Area returns the NAND2-equivalent area of one module, including the area
// of everything instantiated beneath it.
func (d *Design) Area(moduleName string) (float64, error) {
	memo := make(map[string]float64)
	return d.area(moduleName, memo, make(map[string]bool))
}

func (d *Design) area(name string, memo map[string]float64, onPath map[string]bool) (float64, error) {
	if a, ok := memo[name]; ok {
		return a, nil
	}
	if onPath[name] {
		return 0, fmt.Errorf("netlist: recursive instantiation of %s", name)
	}
	m, ok := d.Modules[name]
	if !ok {
		return 0, fmt.Errorf("netlist: unknown module %s", name)
	}
	if m.Behavioral {
		memo[name] = m.AreaOverride
		return m.AreaOverride, nil
	}
	onPath[name] = true
	defer delete(onPath, name)
	var total float64
	for _, inst := range m.Instances {
		if cell, ok := d.Lib.Cell(inst.Of); ok {
			total += cell.Area
			continue
		}
		sub, err := d.area(inst.Of, memo, onPath)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		total += sub
	}
	memo[name] = total
	return total, nil
}

// CellHistogram returns how many instances of each primitive cell kind the
// module uses, recursively (behavioral modules contribute nothing).  The
// histogram backs the detailed area reports.
func (d *Design) CellHistogram(moduleName string) (map[string]int, error) {
	hist := make(map[string]int)
	var walk func(name string) error
	walk = func(name string) error {
		m, ok := d.Modules[name]
		if !ok {
			return fmt.Errorf("netlist: unknown module %s", name)
		}
		if m.Behavioral {
			return nil
		}
		for _, inst := range m.Instances {
			if _, ok := d.Lib.Cell(inst.Of); ok {
				hist[inst.Of]++
				continue
			}
			if err := walk(inst.Of); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(moduleName); err != nil {
		return nil, err
	}
	return hist, nil
}

// CellCount returns how many primitive cells (of any kind) a module
// instantiates, recursively.  Behavioral modules count as zero cells.
func (d *Design) CellCount(moduleName string) (int, error) {
	m, ok := d.Modules[moduleName]
	if !ok {
		return 0, fmt.Errorf("netlist: unknown module %s", moduleName)
	}
	if m.Behavioral {
		return 0, nil
	}
	total := 0
	for _, inst := range m.Instances {
		if _, ok := d.Lib.Cell(inst.Of); ok {
			total++
			continue
		}
		sub, err := d.CellCount(inst.Of)
		if err != nil {
			return 0, err
		}
		total += sub
	}
	return total, nil
}
