// Package par fans independent, index-addressed work items out over a
// bounded set of goroutines.  It owns two decisions the simulation engines
// share: what a Workers option value means, and the order in which items
// are claimed.  Callers write each item's result at its own index and
// aggregate in index order afterwards, which is what makes every engine's
// output independent of the worker count.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a Workers option for n independent items: a value
// below 1 means runtime.GOMAXPROCS(0), the result is capped at n, and it
// is never below 1.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do calls fn(w, i) once for every i in [0, n) on Workers(workers, n)
// goroutines, one of them the caller's.  Items are claimed one at a time,
// in ascending order, from one shared counter (the session search relies on
// it: its early tasks tighten the pruning bound).  Each goroutine first builds
// its own scratch w with newWorker (a nil newWorker gives every goroutine
// the zero W) and reuses it for every item it claims.
//
// Claiming stops once ctx is done or a newWorker or fn call fails; items
// already claimed run to completion.  Do returns ctx.Err() if ctx is done
// when the last goroutine has finished.  Otherwise it returns a newWorker
// error if there was one, else the error of the lowest-indexed failing fn
// call, else nil.  Claims ascend and claimed items finish, so that fn error
// is the one a serial loop over [0, n) would have stopped at.
func Do[W any](ctx context.Context, workers, n int, newWorker func() (W, error), fn func(w W, i int) error) error {
	if n <= 0 || ctx.Err() != nil {
		return ctx.Err()
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  error
		firstI int // index of first; -1 for a newWorker error
	)
	fail := func(i int, err error) {
		mu.Lock()
		if first == nil || i < firstI {
			first, firstI = err, i
		}
		mu.Unlock()
		failed.Store(true)
	}
	run := func() {
		var w W
		if newWorker != nil {
			var err error
			if w, err = newWorker(); err != nil {
				fail(-1, err)
				return
			}
		}
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(w, i); err != nil {
				fail(i, err)
				return
			}
		}
	}

	var wg sync.WaitGroup
	for g := 1; g < Workers(workers, n); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return first
}
