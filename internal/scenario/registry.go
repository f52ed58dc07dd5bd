package scenario

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// The registry maps scenario names to raw (unresolved) specs.  Builtins
// register at init; tests and embedders may add more.  Resolution — base
// chain walking plus merging — happens per lookup, so a derived builtin
// always sees its base's current definition.
var (
	regMu sync.RWMutex
	reg   = map[string]*Spec{}
)

// Register adds a spec to the registry.  Registering a duplicate name or a
// nameless spec is a programming error and panics, mirroring
// campaign.RegisterKind.
func Register(s *Spec) {
	if s == nil || s.Name == "" {
		panic("scenario: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", s.Name))
	}
	reg[s.Name] = s
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the raw registered spec (no base resolution).
func Lookup(name string) (*Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := reg[name]
	return s, ok
}

// Resolve returns the fully-merged, validated spec for a registered name:
// the base chain is walked to its root (cycles and unknown names are typed
// errors) and each derived spec is merged over its base.  The result is a
// deep copy the caller owns: mutating it never reaches the registry.
func Resolve(name string) (*Spec, error) {
	chain, err := baseChain(name)
	if err != nil {
		return nil, err
	}
	merged := chain[len(chain)-1]
	for i := len(chain) - 2; i >= 0; i-- {
		merged = merge(merged, chain[i])
	}
	if err := merged.Validate(); err != nil {
		return nil, err
	}
	return merged.clone(), nil
}

// ResolveSpec resolves a spec that is not (necessarily) registered — e.g. a
// user JSON file — against the registry: its Base, when set, must name a
// registered scenario.
func ResolveSpec(s *Spec) (*Spec, error) {
	if s.Base == "" {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return s, nil
	}
	base, err := Resolve(s.Base)
	if err != nil {
		return nil, err
	}
	merged := merge(base, s)
	if err := merged.Validate(); err != nil {
		return nil, err
	}
	return merged, nil
}

// LoadSpec parses a user JSON spec and resolves it against the registry.
func LoadSpec(data []byte) (*Spec, error) {
	s, err := ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return ResolveSpec(s)
}

// baseChain returns [name, name's base, ..., root], all from the registry.
func baseChain(name string) ([]*Spec, error) {
	var chain []*Spec
	visited := map[string]bool{}
	for cur := name; ; {
		if visited[cur] {
			return nil, fmt.Errorf("%w: %q reached twice from %q", ErrBaseCycle, cur, name)
		}
		visited[cur] = true
		s, ok := Lookup(cur)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownScenario, cur)
		}
		chain = append(chain, s)
		if s.Base == "" {
			return chain, nil
		}
		cur = s.Base
	}
}

// clone returns a deep copy of s: no slice, map or pointer of the copy is
// shared with s.
func (s *Spec) clone() *Spec {
	c := *s
	c.Cores = slices.Clone(s.Cores)
	for i := range c.Cores {
		cs := &c.Cores[i]
		for _, d := range []**IntDist{&cs.Count, &cs.Clocks, &cs.Resets, &cs.TestEnables,
			&cs.PIs, &cs.POs, &cs.Chains, &cs.ChainLength, &cs.ScanPatterns, &cs.FuncPatterns} {
			*d = (*d).clone()
		}
		cs.ChainLengths = slices.Clone(cs.ChainLengths)
	}
	c.Memories = slices.Clone(s.Memories)
	for i := range c.Memories {
		ms := &c.Memories[i]
		for _, d := range []**IntDist{&ms.Count, &ms.Words, &ms.Bits} {
			*d = (*d).clone()
		}
	}
	c.Blocks = maps.Clone(s.Blocks)
	if s.Resources != nil {
		r := *s.Resources
		c.Resources = &r
	}
	if s.BIST != nil {
		b := *s.BIST
		c.BIST = &b
	}
	if s.LogicBIST != nil {
		lb := *s.LogicBIST
		lb.Patterns = lb.Patterns.clone()
		c.LogicBIST = &lb
	}
	return &c
}

// merge overlays child on base and returns a fresh spec (neither input is
// mutated, though the result may share their nested values).  Cores and
// memories merge by template name: a child entry with a base-matching name
// replaces it in place (Remove deletes it), new names append in child
// order.  Blocks merge by key, a zero area deleting the block.  Resources
// and BIST merge field-wise (zero keeps base); LogicBIST replaces
// wholesale.
func merge(base, child *Spec) *Spec {
	out := &Spec{
		Name:        child.Name,
		Description: child.Description,
		LogicBIST:   child.LogicBIST,
	}
	if out.Description == "" {
		out.Description = base.Description
	}
	if out.LogicBIST == nil {
		out.LogicBIST = base.LogicBIST
	}

	out.Cores = append([]CoreSpec(nil), base.Cores...)
	for _, c := range child.Cores {
		idx := -1
		for i := range out.Cores {
			if out.Cores[i].Name == c.Name {
				idx = i
				break
			}
		}
		switch {
		case c.Remove && idx >= 0:
			out.Cores = append(out.Cores[:idx], out.Cores[idx+1:]...)
		case c.Remove:
			// Removing a non-existent template is a no-op, so a derived
			// spec stays valid when its base drops the template first.
		case idx >= 0:
			out.Cores[idx] = c
		default:
			out.Cores = append(out.Cores, c)
		}
	}
	out.Memories = append([]MemorySpec(nil), base.Memories...)
	for _, m := range child.Memories {
		idx := -1
		for i := range out.Memories {
			if out.Memories[i].Name == m.Name {
				idx = i
				break
			}
		}
		switch {
		case m.Remove && idx >= 0:
			out.Memories = append(out.Memories[:idx], out.Memories[idx+1:]...)
		case m.Remove:
		case idx >= 0:
			out.Memories[idx] = m
		default:
			out.Memories = append(out.Memories, m)
		}
	}

	if len(base.Blocks)+len(child.Blocks) > 0 {
		out.Blocks = map[string]float64{}
		for k, v := range base.Blocks {
			out.Blocks[k] = v
		}
		for k, v := range child.Blocks {
			if v == 0 {
				delete(out.Blocks, k)
				continue
			}
			out.Blocks[k] = v
		}
	}

	if base.Resources != nil || child.Resources != nil {
		r := ResourceSpec{}
		if base.Resources != nil {
			r = *base.Resources
		}
		if c := child.Resources; c != nil {
			if c.TestPins != 0 {
				r.TestPins = c.TestPins
			}
			if c.FuncPins != 0 {
				r.FuncPins = c.FuncPins
			}
			if c.MaxPower != 0 {
				r.MaxPower = c.MaxPower
			}
			if c.PowerBudget != 0 {
				r.PowerBudget = c.PowerBudget
			}
			if c.Partitioner != "" {
				r.Partitioner = c.Partitioner
			}
		}
		out.Resources = &r
	}
	if base.BIST != nil || child.BIST != nil {
		b := BISTSpec{}
		if base.BIST != nil {
			b = *base.BIST
		}
		if c := child.BIST; c != nil {
			if c.Algorithm != "" {
				b.Algorithm = c.Algorithm
			}
			if c.Grouping != "" {
				b.Grouping = c.Grouping
			}
			if c.Backgrounds != 0 {
				b.Backgrounds = c.Backgrounds
			}
		}
		out.BIST = &b
	}
	return out
}
