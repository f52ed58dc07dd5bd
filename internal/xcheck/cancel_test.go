package xcheck

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"steac/internal/memory"
)

// pollCtx counts its Err polls and, when at > 0, cancels itself on poll
// number at: a cancellation that lands at the same point of the run every
// time instead of after a wall-clock delay.
type pollCtx struct {
	context.Context
	cancel context.CancelFunc
	polls  atomic.Int64
	at     int64
}

func newPollCtx(at int64) *pollCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCtx{Context: ctx, cancel: cancel, at: at}
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// checkCancel runs call once with a ctx cancelled before the call and once
// with a ctx that cancels itself halfway through a full run's ctx polls.
// Both must return context.Canceled, named with the xcheck stage, and no
// partial result.
func checkCancel[R any](t *testing.T, call func(ctx context.Context) (R, error)) {
	t.Helper()
	var zero R

	full := newPollCtx(0)
	if _, err := call(full); err != nil {
		t.Fatalf("uncancelled run: %v", err)
	}
	total := full.polls.Load()
	if total < 4 {
		t.Fatalf("a full run polled ctx only %d times; too few to cancel mid-run", total)
	}

	pre := newPollCtx(0)
	pre.cancel()
	mid := newPollCtx(total / 2)
	defer mid.cancel()
	for name, ctx := range map[string]*pollCtx{"pre-cancelled": pre, "mid-run": mid} {
		res, err := call(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled in the chain", name, err)
		}
		if !strings.Contains(err.Error(), "xcheck") {
			t.Errorf("%s: err %q does not name the xcheck stage", name, err)
		}
		if !reflect.DeepEqual(res, zero) {
			t.Errorf("%s: canceled run returned a partial result: %+v", name, res)
		}
	}
}

func TestTPGCampaignContextCancel(t *testing.T) {
	alg := mustAlg(t, "March X")
	mems := []memory.Config{{Name: "m0", Words: 16, Bits: 4, Kind: memory.SinglePort}}
	for _, workers := range []int{1, 2} {
		checkCancel(t, func(ctx context.Context) (CampaignResult, error) {
			return TPGCampaignContext(ctx, "tpg", alg, mems, Options{Workers: workers})
		})
	}
}

func TestVerifyGroupsContextCancel(t *testing.T) {
	cases := []GroupCase{
		{"g0", mustAlg(t, "MATS+"), []memory.Config{{Name: "a", Words: 64, Bits: 2, Kind: memory.SinglePort}}},
		{"g1", mustAlg(t, "March X"), []memory.Config{{Name: "b", Words: 64, Bits: 3, Kind: memory.SinglePort}}},
		{"g2", mustAlg(t, "March Y"), []memory.Config{{Name: "c", Words: 32, Bits: 4, Kind: memory.TwoPort}}},
		{"g3", mustAlg(t, "March C-"), []memory.Config{{Name: "d", Words: 64, Bits: 4, Kind: memory.SinglePort}}},
	}
	for _, workers := range []int{1, 2} {
		checkCancel(t, func(ctx context.Context) ([]EquivResult, error) {
			return VerifyGroupsContext(ctx, cases, Options{Workers: workers})
		})
	}
}
