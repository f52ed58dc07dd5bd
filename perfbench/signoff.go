package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"steac/internal/core"
	"steac/internal/memory"
	"steac/internal/scenario"
	"steac/internal/xcheck"
)

// signoffInput is one prepared chip: generated, with its flow input built.
type signoffInput struct {
	chip *scenario.Chip
	in   core.FlowInput
}

// prepareSignoff generates every op's chip and flow input (set-up work:
// the chips exist before the sign-off path starts).
func prepareSignoff(ops []Op) (map[int]signoffInput, error) {
	out := make(map[int]signoffInput, len(ops))
	for _, op := range ops {
		chip, err := scenario.GenerateByName(op.Chip.Scenario, op.Chip.Seed)
		if err != nil {
			return nil, err
		}
		in, err := chip.FlowInput(true)
		if err != nil {
			return nil, err
		}
		out[op.ID] = signoffInput{chip: chip, in: in}
	}
	return out, nil
}

// signoffRun executes sign-off ops in-process.
type signoffRun struct {
	inputs map[int]signoffInput
	tr     *tracer
	// allocs accumulates MemStats.Mallocs deltas around the group
	// equivalence check (traced runs only: ReadMemStats stops the world).
	allocs uint64
}

// exec takes one chip from STIL to a verified DFT netlist: the flow with
// ATE verification, the Verilog of the inserted design, and gate-level
// equivalence of the two smallest memories' BIST benches, the shared
// controller and the wrapper at width 2.
func (x *signoffRun) exec(ctx context.Context, op Op) (res result) {
	res.kind = op.Kind
	root := x.tr.begin("op."+op.Kind, op.ID, 0)
	defer x.tr.end(root)
	start := time.Now()
	defer func() { res.lat = time.Since(start) }()
	inp := x.inputs[op.ID]
	delete(x.inputs, op.ID) // the flow input is consumed by the run
	name := fmt.Sprintf("%s/%d", op.Chip.Scenario, op.Chip.Seed)
	fail := func(code string, err error) result {
		res.code = code
		res.out = []byte("error:" + code)
		res.check = fmt.Errorf("%s: %w", name, err)
		return res
	}

	sp := x.tr.begin("core.flow", op.ID, root)
	fr, err := core.RunFlowContext(ctx, inp.in)
	x.tr.end(sp)
	if err != nil {
		return fail("flow", err)
	}
	if fr.Verify == nil || !fr.Verify.Pass || fr.Verify.Cycles != fr.Schedule.TotalCycles {
		return fail("ate", fmt.Errorf("ATE verification did not pass at %d cycles", fr.Schedule.TotalCycles))
	}

	var verilog bytes.Buffer
	sp = x.tr.begin("netlist.emit", op.ID, root)
	err = fr.Insertion.Design.EmitVerilog(&verilog)
	x.tr.end(sp)
	if err != nil || verilog.Len() == 0 {
		return fail("emit", fmt.Errorf("emit verilog: %v (%d bytes)", err, verilog.Len()))
	}

	opts := xcheck.Options{}
	alg := fr.Brains.Opts.Algorithm
	var cases []xcheck.GroupCase
	for _, m := range inp.chip.SmallestMemories(2) {
		cases = append(cases, xcheck.GroupCase{Name: m.Name, Alg: alg, Mems: []memory.Config{m}})
	}
	var ms0 runtime.MemStats
	if x.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	sp = x.tr.begin("xcheck.equiv", op.ID, root)
	eq, err := xcheck.VerifyGroupsContext(ctx, cases, opts)
	x.tr.end(sp)
	if x.tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		x.allocs += ms1.Mallocs - ms0.Mallocs
	}
	if err != nil {
		return fail("equiv", err)
	}
	rep := xcheck.Report{Equiv: eq}

	sp = x.tr.begin("xcheck.controller", op.ID, root)
	ctl, err := xcheck.VerifyControllerContext(ctx, "controller", len(fr.Brains.Groups), opts)
	x.tr.end(sp)
	if err != nil {
		return fail("controller", err)
	}
	rep.Equiv = append(rep.Equiv, ctl)

	if wc := inp.chip.WrapperCore(); wc != nil {
		sp = x.tr.begin("xcheck.wrapper", op.ID, root)
		w, _, err := xcheck.VerifyWrapperContext(ctx, "wrap_"+wc.Name, wc, 2, opts)
		x.tr.end(sp)
		if err != nil {
			return fail("wrapper", err)
		}
		rep.Equiv = append(rep.Equiv, w)
	}
	if !rep.Pass() {
		return fail("mismatch", fmt.Errorf("gate-level equivalence failed"))
	}

	var out bytes.Buffer
	fmt.Fprintf(&out, "%s cycles=%d sessions=%d verify=%d verilog=%x\n", name,
		fr.Schedule.TotalCycles, len(fr.Schedule.Sessions), fr.Verify.Cycles, sha256.Sum256(verilog.Bytes()))
	for _, e := range rep.Equiv {
		fmt.Fprintf(&out, "%s sessions=%d cycles=%d checks=%d gates=%d\n", e.Name, e.Sessions, e.Cycles, e.Checks, e.Gates)
	}
	res.ok = true
	res.out = out.Bytes()
	return res
}
