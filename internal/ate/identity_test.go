package ate_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"steac/internal/ate"
	"steac/internal/brains"
	"steac/internal/core"
	"steac/internal/dsc"
	"steac/internal/pattern"
	"steac/internal/scenario"
	"steac/internal/testinfo"
)

// pinBytes[care<<8 | val] is the one-Bit-per-pin form of eight pins whose
// care and value bits are the two bytes.
var pinBytes = func() (t [1 << 16][8]byte) {
	for k := range t {
		for b := 0; b < 8; b++ {
			t[k][b] = byte(pattern.BX)
			if k>>(8+b)&1 == 1 {
				t[k][b] = byte(k >> b & 1)
			}
		}
	}
	return t
}()

// streamDigest hashes every cycle Program.Stream emits, session by
// session: TamIn, TamExpect, Func, FuncExpect unpacked to one Bit byte
// per pin, and the non-idle actions sorted by core name — the byte
// sequence the digests were first recorded over.
func streamDigest(t *testing.T, prog *pattern.Program) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	for _, layout := range prog.Sessions {
		names := layout.ActionNames()
		byName := make([]int, len(names))
		for i := range byName {
			byName[i] = i
		}
		slices.SortStableFunc(byName, func(a, b int) int { return strings.Compare(names[a], names[b]) })
		err := prog.Stream(layout, func(c int, cyc *pattern.Cycle) bool {
			buf = buf[:0]
			for _, bus := range []*pattern.Bus{&cyc.TamIn, &cyc.TamExpect, &cyc.Func, &cyc.FuncExpect} {
				// Eight pins per table lookup: the DSC program streams
				// billions of them.
				for i := 0; i < bus.Len(); i += 8 {
					w, o := i/64, i%64
					buf = append(buf, pinBytes[bus.Care[w]>>o&0xFF<<8|bus.Val[w]>>o&0xFF][:min(8, bus.Len()-i)]...)
				}
				buf = append(buf, '|')
			}
			for _, i := range byName {
				if cyc.Actions[i] != pattern.ActIdle {
					buf = append(buf, names[i]...)
					buf = append(buf, '=', byte(cyc.Actions[i]), ';')
				}
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

// progFileDigest hashes the tester file WriteProgramFile emits.
func progFileDigest(t *testing.T, prog *pattern.Program) string {
	t.Helper()
	h := sha256.New()
	if err := pattern.WriteProgramFile(h, prog); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// scenarioInput builds the flow input of a registry scenario, optionally
// with a ring of glue wires between its cores for an EXTEST session.
func scenarioInput(name string, seed int64, extest bool) func(t *testing.T) core.FlowInput {
	return func(t *testing.T) core.FlowInput {
		chip, err := scenario.GenerateByName(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		in, err := chip.FlowInput(false)
		if err != nil {
			t.Fatal(err)
		}
		if extest {
			in.Interconnects = ringInterconnects(chip.Cores)
		}
		return in
	}
}

// ringInterconnects wires each core's outputs to the next core's inputs
// (two glue wires per neighbouring pair that has both).
func ringInterconnects(cores []*testinfo.Core) []pattern.Interconnect {
	var wires []pattern.Interconnect
	for i, from := range cores {
		to := cores[(i+1)%len(cores)]
		if from == to || from.POs == 0 || to.PIs == 0 {
			continue
		}
		for k := 0; k < 2; k++ {
			wires = append(wires, pattern.Interconnect{
				FromCore: from.Name, FromPO: (i + 3*k) % from.POs,
				ToCore: to.Name, ToPI: (2*i + 5*k + 1) % to.PIs,
			})
		}
	}
	return wires
}

// faultyRun is one defect-injected rerun of a case and its pinned mismatch
// summary.
type faultyRun struct {
	name string
	opts []ate.Option
	want string
}

// The translator streams each pattern's chain images once, and the chip
// model reuses its output buffers; neither may change a single emitted bit
// or a single compare.  The digests and results were recorded before
// either optimisation, and the tester file and defect summaries before the
// buses were packed into bit-planes.
func TestStreamAndRunIdentity(t *testing.T) {
	cases := []struct {
		name     string
		input    func(t *testing.T) core.FlowInput
		digest   string
		progFile string // sha256 of WriteProgramFile's bytes, if pinned
		cycles   int
		sess     []int
		faulty   []faultyRun
	}{
		{
			name:     "p1500-lbist seed 4",
			input:    scenarioInput("p1500-lbist", 4, false),
			digest:   "125af82fde49119f190db1e261b5e9e3dec415af6a47a147d3d689af61701283",
			progFile: "4b45e35f1d58e00a0f11246890c1daddba762dbbabc83464f4512e3fc52c916a",
			cycles:   259739,
			sess:     []int{235414, 24325},
			faulty: []faultyRun{
				{
					name: "core defect dsp2",
					opts: []ate.Option{ate.WithCoreDefect("dsp2")},
					want: "13499 mismatches, first {Session:0 Cycle:163 Pin:tam_out[5]}, failing [dsp2.func dsp2.scan]",
				},
				{
					name: "stuck tam wire 1",
					opts: []ate.Option{ate.WithStuckTamWire(1)},
					want: "977 mismatches, first {Session:0 Cycle:225 Pin:tam_out[1]}, failing [dsp0.scan]",
				},
			},
		},
		{
			name:     "p1500-lbist seed 4 extest",
			input:    scenarioInput("p1500-lbist", 4, true),
			digest:   "ff3b1ccf26af9d085d5d3568226a858791ca472f1df717307acad4be82640719",
			progFile: "16d462778d5b341a2e68e38c1fe1a01449ab49aa9ce9ec08581765fefe4b0443",
			cycles:   261763,
			sess:     []int{235414, 24325, 2024},
			faulty: []faultyRun{
				{
					name: "open interconnect 2",
					opts: []ate.Option{ate.WithOpenInterconnect(2)},
					want: "4 mismatches, first {Session:2 Cycle:352 Pin:tam_out[6]}, failing [chip.extest]",
				},
				{
					name: "bridged interconnects 0 3",
					opts: []ate.Option{ate.WithBridgedInterconnects(0, 3)},
					want: "4 mismatches, first {Session:2 Cycle:290 Pin:tam_out[4]}, failing [chip.extest]",
				},
			},
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
			if tc.progFile != "" {
				if got := progFileDigest(t, fr.Program); got != tc.progFile {
					t.Errorf("program file digest %s, want %s", got, tc.progFile)
				}
			}
			res, err := ate.Run(fr.Program, ate.NewChip(fr.Program, fr.Cores))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != tc.cycles || !slices.Equal(res.SessionCycles, tc.sess) || res.Mismatches != 0 || !res.Pass {
				t.Errorf("ate.Run = %d cycles %v sessions %d mismatches pass=%v, want %d %v 0 true",
					res.Cycles, res.SessionCycles, res.Mismatches, res.Pass, tc.cycles, tc.sess)
			}
			// A defective chip: every compare it fails must still fail.
			for _, f := range tc.faulty {
				bad, err := ate.Run(fr.Program, ate.NewChip(fr.Program, fr.Cores, f.opts...))
				if err != nil {
					t.Fatal(err)
				}
				if bad.First == nil {
					t.Errorf("%s: no mismatch", f.name)
					continue
				}
				got := fmt.Sprintf("%d mismatches, first %+v, failing %v", bad.Mismatches, *bad.First, bad.FailingTests)
				if got != f.want {
					t.Errorf("%s: %s, want %s", f.name, got, f.want)
				}
			}
		})
	}
}
