package bist

import (
	"strings"
	"testing"

	"steac/internal/march"
	"steac/internal/memfault"
	"steac/internal/memory"
)

func diagEngine(t *testing.T, cfg memory.Config, faults []memfault.Fault) *Engine {
	t.Helper()
	ram, err := memfault.NewFaulty(cfg, faults)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine([]Group{{Name: "g", Alg: march.MarchCMinus(),
		Mems: []MemoryUnderTest{{RAM: ram}}}}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	e.EnableDiagnosis(0)
	return e
}

func TestDiagnosisSingleCell(t *testing.T) {
	cfg := memory.Config{Name: "d", Words: 64, Bits: 8}
	e := diagEngine(t, cfg, []memfault.Fault{
		{Kind: memfault.SA1, Victim: memfault.Cell{Addr: 17, Bit: 3}},
	})
	if mustRun(t, e).Pass {
		t.Fatal("fault undetected")
	}
	diags := e.Diagnoses()
	if len(diags) != 1 {
		t.Fatalf("diagnoses = %d", len(diags))
	}
	d := diags[0]
	if d.Signature() != "single-cell" {
		t.Fatalf("signature = %s (%d fails)", d.Signature(), len(d.Fails))
	}
	if d.Fails[0] != (FailBit{Addr: 17, Bit: 3}) {
		t.Fatalf("located %+v, want 17.3", d.Fails[0])
	}
	if !strings.Contains(d.String(), "single-cell") {
		t.Fatalf("string = %q", d.String())
	}
}

func TestDiagnosisColumn(t *testing.T) {
	// A column defect: bit 5 stuck at every address.
	cfg := memory.Config{Name: "d", Words: 32, Bits: 8}
	var faults []memfault.Fault
	for a := 0; a < cfg.Words; a++ {
		faults = append(faults, memfault.Fault{Kind: memfault.SA0,
			Victim: memfault.Cell{Addr: a, Bit: 5}})
	}
	e := diagEngine(t, cfg, faults)
	if mustRun(t, e).Pass {
		t.Fatal("column defect undetected")
	}
	d := e.Diagnoses()[0]
	if d.Signature() != "column" {
		t.Fatalf("signature = %s", d.Signature())
	}
	if len(d.Fails) != cfg.Words {
		t.Fatalf("bitmap has %d fails, want %d", len(d.Fails), cfg.Words)
	}
}

func TestDiagnosisRow(t *testing.T) {
	// A row defect: every bit of address 9 stuck.
	cfg := memory.Config{Name: "d", Words: 32, Bits: 8}
	var faults []memfault.Fault
	for b := 0; b < cfg.Bits; b++ {
		faults = append(faults, memfault.Fault{Kind: memfault.SA1,
			Victim: memfault.Cell{Addr: 9, Bit: b}})
	}
	e := diagEngine(t, cfg, faults)
	if mustRun(t, e).Pass {
		t.Fatal("row defect undetected")
	}
	d := e.Diagnoses()[0]
	if d.Signature() != "row" {
		t.Fatalf("signature = %s", d.Signature())
	}
}

func TestDiagnosisScatteredAndTruncation(t *testing.T) {
	cfg := memory.Config{Name: "d", Words: 32, Bits: 8}
	faults := []memfault.Fault{
		{Kind: memfault.SA1, Victim: memfault.Cell{Addr: 1, Bit: 1}},
		{Kind: memfault.SA0, Victim: memfault.Cell{Addr: 20, Bit: 6}},
	}
	e := diagEngine(t, cfg, faults)
	e.EnableDiagnosis(1) // force truncation
	if mustRun(t, e).Pass {
		t.Fatal("faults undetected")
	}
	d := e.Diagnoses()[0]
	if !d.Truncated || len(d.Fails) != 1 {
		t.Fatalf("truncation broken: %+v", d)
	}
	// Without the cap the signature is scattered.
	e2 := diagEngine(t, cfg, faults)
	mustRun(t, e2)
	if sig := e2.Diagnoses()[0].Signature(); sig != "scattered" {
		t.Fatalf("signature = %s", sig)
	}
}

func TestDiagnosisOffByDefault(t *testing.T) {
	cfg := memory.Config{Name: "d", Words: 16, Bits: 4}
	ram, err := memfault.NewFaulty(cfg, []memfault.Fault{
		{Kind: memfault.SA1, Victim: memfault.Cell{Addr: 0, Bit: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine([]Group{{Name: "g", Alg: march.MarchCMinus(),
		Mems: []MemoryUnderTest{{RAM: ram}}}}, Serial)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, e)
	if e.Diagnoses() != nil {
		t.Fatal("diagnosis data collected without opt-in")
	}
	if (Diagnosis{}).Signature() != "none" {
		t.Fatal("empty signature")
	}
}
