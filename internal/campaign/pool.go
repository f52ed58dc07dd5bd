package campaign

import (
	"context"
	"sync"

	"steac/internal/par"
)

// shardResult is one simulated shard's outcome vector.
type shardResult struct {
	index int
	out   []int64
}

// deque is a mutex-protected double-ended work queue of shard indices.
// The owning worker pops from the tail (LIFO, keeps its contiguous block
// warm); thieves steal from the head (FIFO, taking the work the owner
// would reach last).  Campaign shards are milliseconds to seconds each,
// so a plain mutex is nowhere near contended enough to warrant a lock-free
// Chase-Lev deque.
type deque struct {
	mu    sync.Mutex
	items []int
}

func (d *deque) push(idx int) {
	d.mu.Lock()
	d.items = append(d.items, idx)
	d.mu.Unlock()
}

func (d *deque) popTail() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if n == 0 {
		return 0, false
	}
	idx := d.items[n-1]
	d.items = d.items[:n-1]
	return idx, true
}

func (d *deque) popHead() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.items) == 0 {
		return 0, false
	}
	idx := d.items[0]
	d.items = d.items[1:]
	return idx, true
}

// runPool simulates the pending shards on a work-stealing pool and feeds
// every completed shard, in completion order, to complete on the calling
// goroutine — complete is the single journaling/progress path and never
// runs concurrently with itself.
//
// Shards are dealt to per-worker deques in contiguous blocks (locality),
// owners pop LIFO, and a worker whose deque runs dry steals FIFO from
// victims starting at its right-hand neighbour.  The shard set is fixed up
// front — no backfill — so a worker that finds every deque empty is done.
// Campaign shards keep this order instead of par.Do's one shared counter,
// which was slower on the campaign-jobs benchmark (DESIGN.md "Work
// stealing").
//
// Cancellation is cooperative at shard granularity: workers stop claiming
// once ctx fires, an in-flight Run that returns the ctx error has its
// result discarded (never journaled), and a Run that completes despite the
// cancellation is journaled like any other — that is the graceful-drain
// contract.  Any non-cancellation error from a Worker or from complete
// stops the pool and is returned.
func runPool(ctx context.Context, exec Executor, workers int, pending []int,
	size, units int, complete func(shardResult) error) error {
	n := par.Workers(workers, len(pending))
	deques := make([]*deque, n)
	for i := range deques {
		deques[i] = &deque{}
	}
	for i, idx := range pending {
		deques[i*n/len(pending)].push(idx)
	}

	ictx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		cancel()
	}

	results := make(chan shardResult, n)
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w, err := exec.NewWorker()
			if err != nil {
				fail(err)
				return
			}
			for {
				if ictx.Err() != nil {
					return
				}
				idx, ok := deques[id].popTail()
				if !ok {
					for v := 1; v < n && !ok; v++ {
						idx, ok = deques[(id+v)%n].popHead()
					}
					if !ok {
						return
					}
					obsSteals.Add(1)
				}
				lo, hi := shardBounds(units, size, idx)
				out := make([]int64, hi-lo)
				if err := w.Run(ictx, lo, hi, out); err != nil {
					if ictx.Err() == nil {
						fail(err)
					}
					return // aborted shard: discard, never journal
				}
				results <- shardResult{index: idx, out: out}
			}
		}(id)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Single consumer on the calling goroutine: journal + progress, in
	// completion order.  After a completion error the pool is stopped but
	// the channel still drains, so no worker blocks on send.
	for sr := range results {
		errMu.Lock()
		failed := firstErr != nil
		errMu.Unlock()
		if failed {
			continue
		}
		if err := complete(sr); err != nil {
			fail(err)
		}
	}
	errMu.Lock()
	defer errMu.Unlock()
	return firstErr
}
