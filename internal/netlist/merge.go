package netlist

import "fmt"

// Clone returns a deep copy of the module.
func (m *Module) Clone(newName string) *Module {
	c := NewModule(newName)
	c.Behavioral = m.Behavioral
	c.AreaOverride = m.AreaOverride
	for k, v := range m.Attrs {
		c.Attrs[k] = v
	}
	for _, p := range m.Ports {
		c.MustPort(p.Name, p.Dir, p.Width)
	}
	for n := range m.Nets {
		c.AddNet(n)
	}
	for _, inst := range m.Instances {
		c.MustInstance(inst.Name, inst.Of, inst.Conns)
	}
	return c
}

// Merge adds every module of src to d.  The modules are shared, not
// copied: afterwards both designs hold the same *Module values, so neither
// design may mutate a merged module (Clone one for an independent copy).
// A module name already present in d is a collision; Merge then returns an
// error and adds nothing.
func (d *Design) Merge(src *Design) error {
	for _, name := range src.ModuleNames() {
		if _, ok := d.Modules[name]; ok {
			return fmt.Errorf("netlist: merge collision on module %s", name)
		}
	}
	for name, m := range src.Modules {
		d.Modules[name] = m
	}
	return nil
}
