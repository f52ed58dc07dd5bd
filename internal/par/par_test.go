package par

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, n, want int
	}{
		{0, 1 << 20, procs},
		{-3, 1 << 20, procs},
		{0, 1, 1},
		{1, 100, 1},
		{4, 100, 4},
		{8, 3, 3},
		{5, 0, 1},
		{0, 0, 1},
		{-1, -1, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

var errBoom = errors.New("boom")

// TestDoProperties runs Do over seeded (n, workers) pairs and checks its
// contract: every index runs exactly once, at most Workers(workers, n)
// scratch values are built, no scratch is used by two items at once, and
// a nil newWorker works with the zero scratch.
func TestDoProperties(t *testing.T) {
	pairs := [][2]int{{0, 0}, {0, 1}, {0, 4}, {1, 0}, {1, 1}, {5, 0}, {5, 1}, {3, 8}, {1000, 0}, {1000, 1}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		pairs = append(pairs, [2]int{rng.Intn(2000), rng.Intn(12)})
	}
	for _, p := range pairs {
		n, workers := p[0], p[1]
		runs := make([]atomic.Int32, n)
		var built atomic.Int32
		type scratch struct{ busy atomic.Bool }
		err := Do(context.Background(), workers, n, func() (*scratch, error) {
			built.Add(1)
			return &scratch{}, nil
		}, func(s *scratch, i int) error {
			if !s.busy.CompareAndSwap(false, true) {
				t.Errorf("n=%d workers=%d: item %d shares its scratch with a running item", n, workers, i)
			}
			runs[i].Add(1)
			s.busy.Store(false)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d workers=%d: err = %v", n, workers, err)
		}
		for i := range runs {
			if c := runs[i].Load(); c != 1 {
				t.Fatalf("n=%d workers=%d: item %d ran %d times", n, workers, i, c)
			}
		}
		if b, limit := int(built.Load()), Workers(workers, n); b > limit {
			t.Errorf("n=%d workers=%d: built %d scratch values, want at most %d", n, workers, b, limit)
		}

		var sum atomic.Int64
		err = Do(context.Background(), workers, n, nil, func(s struct{}, i int) error {
			sum.Add(int64(i))
			return nil
		})
		if want := int64(n) * int64(n-1) / 2; err != nil || sum.Load() != want {
			t.Errorf("n=%d workers=%d, nil newWorker: sum %d err %v, want %d", n, workers, sum.Load(), err, want)
		}
	}
}

// TestDoStopsOnError checks that a failing fn or newWorker is reported and
// stops the claiming long before a large n is exhausted, and that the fn
// error returned is the lowest-indexed one, as a serial loop would see.
func TestDoStopsOnError(t *testing.T) {
	const n = 1 << 20
	for _, workers := range []int{1, 2, 4, 8} {
		var ran atomic.Int64
		err := Do(context.Background(), workers, n, nil, func(_ struct{}, i int) error {
			ran.Add(1)
			if i >= 100 {
				return errBoom
			}
			return nil
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: err = %v, want errBoom", workers, err)
		}
		if r := ran.Load(); r > n/2 {
			t.Errorf("workers=%d: fn ran %d of %d items after a failure", workers, r, n)
		}

		// Items from 100 on fail with their index; the lowest one wins.
		err = Do(context.Background(), workers, n, nil, func(_ struct{}, i int) error {
			if i >= 100 {
				return indexError(i)
			}
			return nil
		})
		if !errors.Is(err, indexError(100)) {
			t.Errorf("workers=%d: err = %v, want the error of item 100", workers, err)
		}

		ran.Store(0)
		err = Do(context.Background(), workers, n, func() (int, error) {
			return 0, errBoom
		}, func(int, int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: newWorker failure: err = %v, want errBoom", workers, err)
		}
		if r := ran.Load(); r != 0 {
			t.Errorf("workers=%d: fn ran %d items although every newWorker failed", workers, r)
		}
	}
}

type indexError int

func (e indexError) Error() string { return "item failed" }

// TestDoCancel checks that a ctx cancelled before the call never runs fn
// or builds scratch, and that one cancelled mid-run stops the claiming and
// is reported as ctx.Err().
func TestDoCancel(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran, built atomic.Int64
		err := Do(ctx, workers, 1000, func() (int, error) {
			built.Add(1)
			return 0, nil
		}, func(int, int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d pre-cancelled: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 || built.Load() != 0 {
			t.Errorf("workers=%d pre-cancelled: fn ran %d times, %d scratch values built",
				workers, ran.Load(), built.Load())
		}

		const n = 1 << 20
		ctx, cancel = context.WithCancel(context.Background())
		ran.Store(0)
		err = Do(ctx, workers, n, nil, func(_ struct{}, i int) error {
			if ran.Add(1) == 100 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d mid-run: err = %v, want context.Canceled", workers, err)
		}
		if r := ran.Load(); r > n/2 {
			t.Errorf("workers=%d mid-run: fn ran %d of %d items after cancel", workers, r, n)
		}
	}
}
