package pattern

import (
	"fmt"
	"strings"

	"steac/internal/stil"
	"steac/internal/testinfo"
)

// FromSTIL builds a Source from explicit STIL vector data, the path taken
// when the ATPG hand-off carries literal test vectors rather than a
// generator annotation.
func FromSTIL(core *testinfo.Core, v *stil.Vectors) (*ExplicitSource, error) {
	var scan []ScanPattern
	for i, sv := range v.Scan {
		p := ScanPattern{}
		for _, ch := range core.ScanChains {
			load, ok := sv.Load[ch.Name]
			if !ok {
				return nil, fmt.Errorf("pattern: scan vector %d missing load for chain %s", i, ch.Name)
			}
			unload, ok := sv.Unload[ch.Name]
			if !ok {
				return nil, fmt.Errorf("pattern: scan vector %d missing unload for chain %s", i, ch.Name)
			}
			p.Load = append(p.Load, bitsOf(load, "1"))
			p.ExpectUnload = append(p.ExpectUnload, bitsOf(unload, "1"))
		}
		p.PI = bitsOf(sv.PI, "1")
		p.ExpectPO = bitsOf(sv.PO, "H")
		scan = append(scan, p)
	}
	var fn []FuncPattern
	for i, fv := range v.Func {
		if len(fv.PI) != core.PIs || len(fv.PO) != core.POs {
			return nil, fmt.Errorf("pattern: functional vector %d PI/PO = %d/%d, want %d/%d",
				i, len(fv.PI), len(fv.PO), core.PIs, core.POs)
		}
		fn = append(fn, FuncPattern{PI: packBools(bitsOf(fv.PI, "1")), ExpectPO: packBools(bitsOf(fv.PO, "H"))})
	}
	return NewExplicitSource(core, scan, fn)
}

// ToSTIL renders pattern data as STIL vector statements; together with
// stil.EmitWithVectors it writes a fully explicit hand-off file.
func ToSTIL(core *testinfo.Core, scan []ScanPattern, fn []FuncPattern) *stil.Vectors {
	v := &stil.Vectors{}
	for _, p := range scan {
		sv := stil.ScanVector{Load: make(map[string]string), Unload: make(map[string]string)}
		for ci, ch := range core.ScanChains {
			sv.Load[ch.Name] = stringOf(p.Load[ci], "0", "1")
			sv.Unload[ch.Name] = stringOf(p.ExpectUnload[ci], "0", "1")
		}
		sv.PI = stringOf(p.PI, "0", "1")
		sv.PO = stringOf(p.ExpectPO, "L", "H")
		v.Scan = append(v.Scan, sv)
	}
	for _, p := range fn {
		v.Func = append(v.Func, stil.FuncVector{
			PI: stringOf(unpackBits(p.PI, core.PIs), "0", "1"),
			PO: stringOf(unpackBits(p.ExpectPO, core.POs), "L", "H"),
		})
	}
	return v
}

func bitsOf(s, high string) []bool {
	if s == "" {
		return nil
	}
	out := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = strings.HasPrefix(high, string(s[i]))
	}
	return out
}

func stringOf(bits []bool, lo, hi string) string {
	var sb strings.Builder
	for _, b := range bits {
		if b {
			sb.WriteString(hi)
		} else {
			sb.WriteString(lo)
		}
	}
	return sb.String()
}
