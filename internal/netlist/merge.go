package netlist

import "fmt"

// Alias returns a module named name that shares m's body: its ports, nets,
// instances and attributes are m's own values, not copies, so it emits the
// same declaration under another name.  Like a module that Merge shares, a
// module is never mutated once it is in a design, and neither m nor its
// alias may be mutated afterwards.
func (m *Module) Alias(name string) *Module {
	a := *m
	a.Name = name
	if a.aliasOf == "" {
		a.aliasOf = m.Name
	}
	return &a
}

// AliasOf returns the name of the module whose body m shares (see Alias),
// or "" when m owns its body.
func (m *Module) AliasOf() string { return m.aliasOf }

// Merge adds every module of src to d.  The modules are shared, not
// copied: afterwards both designs hold the same *Module values, so neither
// design may mutate a merged module.  A module name already present in d
// is a collision; Merge then returns an error and adds nothing.
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
