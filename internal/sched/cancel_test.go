package sched_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"steac/internal/sched"
)

// cancelBudget is the promptness contract from DESIGN.md: once ctx fires,
// the partition search must unwind within a quarter second.
const cancelBudget = 250 * time.Millisecond

// TestSessionBasedContextCancel cancels the session-partition search
// mid-flight.  The branch-and-bound prunes a 10-core search quickly, so
// the worker loops searches back-to-back until the cancel lands — whichever
// search is in flight (or starts next) must surface the wrapped
// context.Canceled promptly and return no schedule.
func TestSessionBasedContextCancel(t *testing.T) {
	chip, tests := sizedTests(t, 10) // 10 jobs: the exhaustive-search path
	res := chip.Resources
	res.Workers = 4

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		s   *sched.Schedule
		err error
	}
	done := make(chan result, 1)
	go func() {
		for {
			s, err := sched.SessionBasedContext(ctx, tests, res)
			if err != nil {
				done <- result{s, err}
				return
			}
		}
	}()

	time.Sleep(20 * time.Millisecond)
	cancel()
	deadline := time.Now().Add(cancelBudget)

	select {
	case res := <-done:
		if time.Now().After(deadline) {
			t.Errorf("search returned later than %v after cancel", cancelBudget)
		}
		if !errors.Is(res.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled in the chain", res.err)
		}
		if !strings.Contains(res.err.Error(), "sched: session search") {
			t.Errorf("err %q does not name the search stage", res.err)
		}
		if res.s != nil {
			t.Errorf("canceled search returned a partial schedule: %+v", res.s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("search did not return after cancel")
	}
}

// TestSessionBasedContextDeadline checks that an expired deadline surfaces
// as context.DeadlineExceeded through the same wrapping.
func TestSessionBasedContextDeadline(t *testing.T) {
	chip, tests := sizedTests(t, 8)
	res := chip.Resources

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := sched.SessionBasedContext(ctx, tests, res); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
}
