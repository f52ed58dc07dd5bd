package fabric

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Model-based property test of the lease table: a map-based reference
// implementation replays the same seeded random event sequence — claims,
// heartbeats, clock advances past the TTL, completions — and every
// observable output (claim grants, heartbeat renew/lost splits, already
// flags, snapshot counts) must match exactly, because the table's
// scheduling order is documented deterministic (pending FIFO, expired
// leases re-queued at the front ordered by expiry then index).  On top of
// the replay the test asserts the safety invariants directly:
//
//   - a claim never hands out a live (unexpired) lease or a complete shard
//   - every shard is always in exactly one state; none is ever lost
//   - completions are monotonic, and a drain phase always converges to
//     all-complete
//
// against the reference's own bookkeeping, so a bug would have to appear
// identically in two independent implementations to slip through.

// refTable is the reference: one map entry per shard plus an explicit
// pending order list.
type refTable struct {
	ttl      time.Duration
	state    map[int]shardState
	owner    map[int]string
	expires  map[int]time.Time
	prev     map[int]string
	pending  []int
	complete int
}

func newRefTable(shards int, ttl time.Duration) *refTable {
	r := &refTable{
		ttl:     ttl,
		state:   map[int]shardState{},
		owner:   map[int]string{},
		expires: map[int]time.Time{},
		prev:    map[int]string{},
	}
	for i := 0; i < shards; i++ {
		r.state[i] = shardPending
		r.pending = append(r.pending, i)
	}
	return r
}

func (r *refTable) reclaim(now time.Time) {
	var dead []int
	for i, st := range r.state {
		if st == shardLeased && now.After(r.expires[i]) {
			dead = append(dead, i)
		}
	}
	sort.Slice(dead, func(a, b int) bool {
		ea, eb := r.expires[dead[a]], r.expires[dead[b]]
		if !ea.Equal(eb) {
			return ea.Before(eb)
		}
		return dead[a] < dead[b]
	})
	for _, i := range dead {
		r.state[i] = shardPending
		r.prev[i] = r.owner[i]
		delete(r.owner, i)
	}
	r.pending = append(append([]int{}, dead...), r.pending...)
}

func (r *refTable) claim(now time.Time, node string, max int) []int {
	r.reclaim(now)
	if max <= 0 {
		max = 1
	}
	var out []int
	for len(out) < max && len(r.pending) > 0 {
		i := r.pending[0]
		r.pending = r.pending[1:]
		if r.state[i] != shardPending {
			continue
		}
		r.state[i] = shardLeased
		r.owner[i] = node
		r.expires[i] = now.Add(r.ttl)
		out = append(out, i)
	}
	return out
}

func (r *refTable) heartbeat(now time.Time, node string, shards []int) (renewed, lost []int) {
	for _, i := range shards {
		if st, ok := r.state[i]; ok && st == shardLeased && r.owner[i] == node {
			r.expires[i] = now.Add(r.ttl)
			renewed = append(renewed, i)
		} else {
			lost = append(lost, i)
		}
	}
	return renewed, lost
}

func (r *refTable) completeShard(node string, idx int) (already bool) {
	if r.state[idx] == shardComplete {
		return true
	}
	if r.state[idx] == shardPending {
		for i, p := range r.pending {
			if p == idx {
				r.pending = append(r.pending[:i], r.pending[i+1:]...)
				break
			}
		}
	}
	r.state[idx] = shardComplete
	r.owner[idx] = node
	r.complete++
	return false
}

// checkInvariants asserts the state-partition invariant against the
// reference bookkeeping.
func (r *refTable) checkInvariants(t *testing.T, shards int) {
	t.Helper()
	counts := map[shardState]int{}
	for i := 0; i < shards; i++ {
		st, ok := r.state[i]
		if !ok {
			t.Fatalf("shard %d lost from the reference state map", i)
		}
		counts[st]++
	}
	if total := counts[shardPending] + counts[shardLeased] + counts[shardComplete]; total != shards {
		t.Fatalf("state partition broken: %d pending + %d leased + %d complete != %d",
			counts[shardPending], counts[shardLeased], counts[shardComplete], shards)
	}
	if counts[shardComplete] != r.complete {
		t.Fatalf("complete count drifted: map says %d, counter says %d",
			counts[shardComplete], r.complete)
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLeaseTablePropertyVsReference(t *testing.T) {
	const seeds = 30
	nodes := []string{"n0", "n1", "n2"}
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			shards := 1 + rng.Intn(40)
			ttl := time.Second
			clock := time.Unix(1000, 0)
			now := func() time.Time { return clock }

			table := NewTable(shards, ttl, now)
			ref := newRefTable(shards, ttl)
			// held mirrors what each node believes it holds — the shard
			// sets heartbeats are issued over.
			held := map[string]map[int]bool{}
			for _, n := range nodes {
				held[n] = map[int]bool{}
			}

			for op := 0; op < 250; op++ {
				node := nodes[rng.Intn(len(nodes))]
				switch rng.Intn(5) {
				case 0: // claim
					max := 1 + rng.Intn(4)
					got := table.Claim(node, max)
					want := ref.claim(clock, node, max)
					if !sameInts(got, want) {
						t.Fatalf("op %d: Claim(%s,%d) = %v, reference %v", op, node, max, got, want)
					}
					for _, idx := range got {
						held[node][idx] = true
					}
				case 1: // heartbeat over the node's held set (plus noise)
					var hb []int
					for idx := range held[node] {
						hb = append(hb, idx)
					}
					sort.Ints(hb)
					if rng.Intn(4) == 0 {
						hb = append(hb, rng.Intn(shards)) // possibly not ours
					}
					gotR, gotL := table.Heartbeat(node, hb)
					wantR, wantL := ref.heartbeat(clock, node, hb)
					if !sameInts(gotR, wantR) || !sameInts(gotL, wantL) {
						t.Fatalf("op %d: Heartbeat(%s,%v) = (%v,%v), reference (%v,%v)",
							op, node, hb, gotR, gotL, wantR, wantL)
					}
					for _, idx := range gotL {
						delete(held[node], idx)
					}
				case 2: // advance the clock, sometimes past the TTL
					clock = clock.Add(time.Duration(rng.Int63n(int64(ttl) * 3 / 2)))
				case 3: // complete a held shard
					for idx := range held[node] {
						already, err := table.Complete(node, idx)
						if err != nil {
							t.Fatalf("op %d: Complete(%s,%d): %v", op, node, idx, err)
						}
						if want := ref.completeShard(node, idx); already != want {
							t.Fatalf("op %d: Complete(%s,%d) already=%v, reference %v",
								op, node, idx, already, want)
						}
						delete(held[node], idx)
						break
					}
				case 4: // complete a random shard (a thief finishing late)
					idx := rng.Intn(shards)
					already, err := table.Complete(node, idx)
					if err != nil {
						t.Fatalf("op %d: Complete(%s,%d): %v", op, node, idx, err)
					}
					if want := ref.completeShard(node, idx); already != want {
						t.Fatalf("op %d: stray Complete(%s,%d) already=%v, reference %v",
							op, node, idx, already, want)
					}
				}
				ref.checkInvariants(t, shards)
				snap := table.Snapshot()
				if snap.Complete != ref.complete {
					t.Fatalf("op %d: snapshot complete %d, reference %d", op, snap.Complete, ref.complete)
				}
				if snap.Pending+snap.Leased+snap.Complete != shards {
					t.Fatalf("op %d: snapshot partition %d+%d+%d != %d",
						op, snap.Pending, snap.Leased, snap.Complete, shards)
				}
				if table.Done() != (ref.complete == shards) {
					t.Fatalf("op %d: Done %v, reference complete %d/%d",
						op, table.Done(), ref.complete, shards)
				}
			}

			// Drain: expire everything and complete whatever is claimed;
			// the table must converge to all-complete, never losing a
			// shard.
			for round := 0; !table.Done(); round++ {
				if round > shards+10 {
					t.Fatalf("table failed to converge: %+v", table.Snapshot())
				}
				clock = clock.Add(ttl * 2)
				node := nodes[round%len(nodes)]
				got := table.Claim(node, shards)
				want := ref.claim(clock, node, shards)
				if !sameInts(got, want) {
					t.Fatalf("drain claim = %v, reference %v", got, want)
				}
				for _, idx := range got {
					if _, err := table.Complete(node, idx); err != nil {
						t.Fatalf("drain Complete(%d): %v", idx, err)
					}
					ref.completeShard(node, idx)
				}
			}
			if ref.complete != shards {
				t.Fatalf("reference disagrees at convergence: %d/%d", ref.complete, shards)
			}
			snap := table.Snapshot()
			if snap.Complete != shards || snap.Pending != 0 || snap.Leased != 0 {
				t.Fatalf("converged snapshot %+v, want all %d complete", snap, shards)
			}
		})
	}
}

// TestLeaseTableNeverDoubleAssignsLive drives two greedy claimants against
// a table with a long TTL: with no expiries, every shard must be granted
// exactly once across both nodes.
func TestLeaseTableNeverDoubleAssignsLive(t *testing.T) {
	const shards = 64
	clock := time.Unix(0, 0)
	table := NewTable(shards, time.Hour, func() time.Time { return clock })
	seen := map[int]string{}
	for i := 0; i < 100; i++ {
		node := fmt.Sprintf("n%d", i%2)
		for _, idx := range table.Claim(node, 3) {
			if prev, dup := seen[idx]; dup {
				t.Fatalf("shard %d leased to %s while live on %s", idx, node, prev)
			}
			seen[idx] = node
		}
	}
	if len(seen) != shards {
		t.Fatalf("granted %d distinct shards, want %d", len(seen), shards)
	}
}

// TestLeaseTableErrUnknownShard pins the typed sentinel for out-of-range
// completions.
func TestLeaseTableErrUnknownShard(t *testing.T) {
	table := NewTable(4, time.Second, nil)
	for _, idx := range []int{-1, 4, 99} {
		if _, err := table.Complete("n", idx); err == nil || !errorsIsUnknownShard(err) {
			t.Fatalf("Complete(%d) error = %v, want ErrUnknownShard", idx, err)
		}
	}
}

func errorsIsUnknownShard(err error) bool {
	c := protocol.For(err)
	return c.Name == "unknown_shard" && c.Status == 400
}
