package ate_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"steac/internal/ate"
	"steac/internal/brains"
	"steac/internal/core"
	"steac/internal/dsc"
	"steac/internal/pattern"
	"steac/internal/scenario"
)

// streamDigest hashes every cycle Program.Stream emits, session by
// session: TamIn, TamExpect, Func, FuncExpect and the actions sorted by
// core name.
func streamDigest(t *testing.T, prog *pattern.Program) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	var names []string
	sep := []byte{'|'}
	for _, layout := range prog.Sessions {
		err := prog.Stream(layout, func(c int, cyc *pattern.Cycle) bool {
			for _, v := range [][]pattern.Bit{cyc.TamIn, cyc.TamExpect, cyc.Func, cyc.FuncExpect} {
				// Bit is a byte: hash the vector's bytes in place (the
				// DSC program streams billions of them).
				h.Write(unsafe.Slice((*byte)(unsafe.SliceData(v)), len(v)))
				h.Write(sep)
			}
			buf = buf[:0]
			names = names[:0]
			for name := range cyc.Actions {
				names = append(names, name)
			}
			slices.Sort(names)
			for _, name := range names {
				buf = append(buf, name...)
				buf = append(buf, '=', byte(cyc.Actions[name]), ';')
			}
			buf = append(buf, '\n')
			h.Write(buf)
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// The translator streams each pattern's chain images once, and the chip
// model reuses its output buffers; neither may change a single emitted bit
// or a single compare.  The digests and results were recorded before
// either optimisation.
func TestStreamAndRunIdentity(t *testing.T) {
	cases := []struct {
		name   string
		input  func(t *testing.T) core.FlowInput
		digest string
		cycles int
		sess   []int
		defect string // core to rerun with WithCoreDefect, if any
		bad    string // that run's mismatch summary
	}{
		{
			name: "p1500-lbist seed 4",
			input: func(t *testing.T) core.FlowInput {
				chip, err := scenario.GenerateByName("p1500-lbist", 4)
				if err != nil {
					t.Fatal(err)
				}
				in, err := chip.FlowInput(false)
				if err != nil {
					t.Fatal(err)
				}
				return in
			},
			digest: "125af82fde49119f190db1e261b5e9e3dec415af6a47a147d3d689af61701283",
			cycles: 259739,
			sess:   []int{235414, 24325},
			defect: "dsp2",
			bad:    "13499 mismatches, first {Session:0 Cycle:163 Pin:tam_out[5]}, failing [dsp2.func dsp2.scan]",
		},
		{
			name: "dsc",
			input: func(t *testing.T) core.FlowInput {
				if testing.Short() {
					t.Skip("full DSC program (~4.4M cycles) skipped in -short")
				}
				soc, err := dsc.BuildSOC()
				if err != nil {
					t.Fatal(err)
				}
				stils, err := core.EmitSTIL(dsc.Cores())
				if err != nil {
					t.Fatal(err)
				}
				return core.FlowInput{STIL: stils, SOC: soc, Resources: dsc.Resources(), Memories: dsc.Memories(),
					BISTOptions: brains.Options{Grouping: brains.GroupPerMemory}}
			},
			digest: "d105dab05a1d7399d1eb97d8459257a45ae16aa3f2da2446534f52afd1c01202",
			cycles: 4376942,
			sess:   []int{2621444, 1755498},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr, err := core.RunFlowContext(context.Background(), tc.input(t))
			if err != nil {
				t.Fatal(err)
			}
			if got := streamDigest(t, fr.Program); got != tc.digest {
				t.Errorf("stream digest %s, want %s", got, tc.digest)
			}
			res, err := ate.Run(fr.Program, ate.NewChip(fr.Program, fr.Cores))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != tc.cycles || !slices.Equal(res.SessionCycles, tc.sess) || res.Mismatches != 0 || !res.Pass {
				t.Errorf("ate.Run = %d cycles %v sessions %d mismatches pass=%v, want %d %v 0 true",
					res.Cycles, res.SessionCycles, res.Mismatches, res.Pass, tc.cycles, tc.sess)
			}
			if tc.defect == "" {
				return
			}
			// A defective core: every compare the chip fails must still fail.
			bad, err := ate.Run(fr.Program, ate.NewChip(fr.Program, fr.Cores, ate.WithCoreDefect(tc.defect)))
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%d mismatches, first %+v, failing %v", bad.Mismatches, *bad.First, bad.FailingTests)
			if got != tc.bad {
				t.Errorf("defective %s: %s, want %s", tc.defect, got, tc.bad)
			}
		})
	}
}
