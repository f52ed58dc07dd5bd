package campaign

import (
	"context"
	"errors"
	"testing"

	"steac/internal/obs"
	"steac/internal/xcheck"
)

// cancelOnRunSpec wraps an xcheck spec so that its worker cancels the
// campaign context just before it simulates a shard: the whole shard then
// runs under a fired ctx, and only the packed runner's own mid-session
// polling can stop it before the end of its batch.
type cancelOnRunSpec struct {
	*XCheckSpec
	cancel context.CancelFunc
}

func (s cancelOnRunSpec) Prepare(ctx context.Context) (Executor, error) {
	exec, err := s.XCheckSpec.Prepare(ctx)
	if err != nil {
		return nil, err
	}
	return cancelOnRunExecutor{Executor: exec, cancel: s.cancel}, nil
}

type cancelOnRunExecutor struct {
	Executor
	cancel context.CancelFunc
}

func (e cancelOnRunExecutor) NewWorker() (Worker, error) {
	w, err := e.Executor.NewWorker()
	if err != nil {
		return nil, err
	}
	return cancelOnRunWorker{Worker: w, cancel: e.cancel}, nil
}

type cancelOnRunWorker struct {
	Worker
	cancel context.CancelFunc
}

func (w cancelOnRunWorker) Run(ctx context.Context, lo, hi int, out []int64) error {
	w.cancel()
	return w.Worker.Run(ctx, lo, hi, out)
}

// TestXCheckControllerCancelStopsMidSession checks the Worker contract for
// the packed controller runner: a canceled campaign stops inside the
// session (fewer packed ticks than the session is long), Run returns the
// ctx error, and the aborted shard is never journaled.  The controller is
// sized so its session (4,344 cycles) outlasts one ctx poll interval.
func TestXCheckControllerCancelStopsMidSession(t *testing.T) {
	spec := &XCheckSpec{Campaign: XCheckController, Name: "cancel-ctl", NGroups: 180, MaxFaults: xcheck.PackedBatch}
	sim, err := xcheck.NewControllerCampaignSim(spec.name(), spec.NGroups, spec.options())
	if err != nil {
		t.Fatal(err)
	}
	session := int64(sim.GoldenCycles())
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := obs.CounterValue("netlist.packed_ticks")
	_, err = Run(ctx, cancelOnRunSpec{XCheckSpec: spec, cancel: cancel}, Options{Workers: 1, Dir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: got %v, want context.Canceled", err)
	}
	if ticks := obs.CounterValue("netlist.packed_ticks") - before; ticks >= session {
		t.Fatalf("canceled run took %d packed ticks, session is %d cycles", ticks, session)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.ShardsDone != 0 {
		t.Fatalf("canceled shard was journaled (%d shards done)", info.ShardsDone)
	}

	// Uncanceled, the same shard runs to the end of the session (some fault
	// stays silent), so the tick bound above really measured an early stop.
	before = obs.CounterValue("netlist.packed_ticks")
	res, err := Run(context.Background(), spec, Options{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if ticks := obs.CounterValue("netlist.packed_ticks") - before; ticks < session {
		t.Fatalf("uncanceled run took %d packed ticks, session is %d cycles", ticks, session)
	}
	if res.Resumed != 0 {
		t.Fatalf("resume loaded %d shards, want 0", res.Resumed)
	}
}
