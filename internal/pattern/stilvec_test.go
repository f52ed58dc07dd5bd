package pattern

import (
	"reflect"
	"testing"

	"steac/internal/stil"
	"steac/internal/testinfo"
)

func vecCore() *testinfo.Core {
	return &testinfo.Core{
		Name:        "VEC",
		Clocks:      []string{"ck"},
		ScanEnables: []string{"se"},
		PIs:         5, POs: 3,
		ScanChains: []testinfo.ScanChain{
			{Name: "ca", Length: 6, In: "si0", Out: "so0", Clock: "ck"},
			{Name: "cb", Length: 4, In: "si1", Out: "so1", Clock: "ck"},
		},
		Patterns: []testinfo.PatternSet{
			{Name: "scan", Type: testinfo.Scan, Count: 3, Seed: 41},
			{Name: "func", Type: testinfo.Functional, Count: 4, Seed: 42},
		},
	}
}

// Export ATPG patterns, serialize as explicit STIL vectors, parse back,
// and compare bit for bit: the vector hand-off is lossless.
func TestSTILVectorRoundTrip(t *testing.T) {
	core := vecCore()
	a, err := NewATPG(core)
	if err != nil {
		t.Fatal(err)
	}
	scan, fn, err := Export(a, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) != 3 || len(fn) != 4 {
		t.Fatalf("exported %d scan, %d func", len(scan), len(fn))
	}
	vecs := ToSTIL(core, scan, fn)
	src, err := stil.EmitWithVectors(core, vecs)
	if err != nil {
		t.Fatal(err)
	}
	backCore, backVecs, err := stil.ParseWithVectors(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	if backCore.Name != "VEC" || backCore.TotalScanBits() != 10 {
		t.Fatal("core info lost")
	}
	exp, err := FromSTIL(backCore, backVecs)
	if err != nil {
		t.Fatal(err)
	}
	if exp.ScanCount() != 3 || exp.FuncCount() != 4 {
		t.Fatalf("explicit source has %d/%d patterns", exp.ScanCount(), exp.FuncCount())
	}
	for i := 0; i < 3; i++ {
		want, err := a.ScanPattern(i)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exp.ScanPattern(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(want), normalize(got)) {
			t.Fatalf("scan pattern %d differs:\nwant %+v\ngot  %+v", i, want, got)
		}
	}
	wantNext := a.FuncStream()
	gotNext := exp.FuncStream()
	for i := 0; i < 4; i++ {
		w, _ := wantNext()
		g, ok := gotNext()
		if !ok || !reflect.DeepEqual(w, g) {
			t.Fatalf("func pattern %d differs", i)
		}
	}
}

// normalize maps empty slices to nil for DeepEqual.
func normalize(p ScanPattern) ScanPattern {
	if len(p.PI) == 0 {
		p.PI = nil
	}
	if len(p.ExpectPO) == 0 {
		p.ExpectPO = nil
	}
	return p
}

func TestExplicitSourceValidation(t *testing.T) {
	core := vecCore()
	if _, err := NewExplicitSource(core, []ScanPattern{{}}, nil); err == nil {
		t.Fatal("empty scan vector accepted")
	}
	bad := ScanPattern{
		Load:         [][]bool{make([]bool, 6), make([]bool, 3)}, // cb too short
		ExpectUnload: [][]bool{make([]bool, 6), make([]bool, 4)},
		PI:           make([]bool, 5), ExpectPO: make([]bool, 3),
	}
	if _, err := NewExplicitSource(core, []ScanPattern{bad}, nil); err == nil {
		t.Fatal("short chain accepted")
	}
	if _, err := NewExplicitSource(core, nil, []FuncPattern{{ExpectPO: []uint64{0}}}); err == nil {
		t.Fatal("short functional PI accepted")
	}
	if _, err := NewExplicitSource(core, nil, []FuncPattern{{PI: []uint64{1 << 5}, ExpectPO: []uint64{0}}}); err == nil {
		t.Fatal("functional PI past the core's 5 pins accepted")
	}
	es, err := NewExplicitSource(core, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := es.ScanPattern(0); err == nil {
		t.Fatal("out-of-range scan vector accepted")
	}
}

func TestFromSTILMissingChain(t *testing.T) {
	core := vecCore()
	v := &stil.Vectors{Scan: []stil.ScanVector{{
		Load:   map[string]string{"ca": "010101"},
		Unload: map[string]string{"ca": "101010", "cb": "0101"},
		PI:     "00000", PO: "HHH",
	}}}
	if _, err := FromSTIL(core, v); err == nil {
		t.Fatal("missing cb load accepted")
	}
}

func TestExportBounds(t *testing.T) {
	a, err := NewATPG(vecCore())
	if err != nil {
		t.Fatal(err)
	}
	scan, fn, err := Export(a, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) != 2 || len(fn) != 1 {
		t.Fatalf("bounded export = %d/%d", len(scan), len(fn))
	}
}
