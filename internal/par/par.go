// Package par provides the deterministic intra-cell parallelism primitives
// the sweep engine and the placement phases share: a sharded parallel-for
// with *fixed* shard boundaries and an ordered reduction, plus a Budget that
// apportions a global worker allowance among concurrent holders.
//
// Determinism is the design constraint. Shard boundaries are a pure function
// of the problem size and the grain — never of the worker count — and
// reductions combine per-shard results in ascending shard order, so every
// float summation order is independent of how many goroutines happened to
// run. Loops whose shards write disjoint outputs (the common case here:
// force-cache rows, per-DC fine plans, per-VM compiled tables) are therefore
// bit-identical to their serial execution at any worker count, which is what
// lets the experiment engine promise byte-identical ResultSet JSON whether a
// cell ran alone on one goroutine or sharded across sixteen.
package par

import (
	"sync"
	"sync/atomic"
)

// Budget is a shared allowance of extra workers. The experiment engine
// creates one per sweep holding Parallelism minus the number of cell
// goroutines, so cells x intra-cell shards never oversubscribe the
// configured parallelism; as cell workers retire they release their own
// slot into the budget, letting the tail cells of a narrow grid go wider.
//
// A nil *Budget is valid everywhere and grants nothing: every sharded loop
// then runs serially on the caller's goroutine. Results are identical
// either way.
type Budget struct {
	extra atomic.Int64
}

// NewBudget returns a budget holding `extra` additional workers beyond the
// goroutines its holders already own. A non-positive allowance is an empty
// (but usable) budget.
func NewBudget(extra int) *Budget {
	b := &Budget{}
	if extra > 0 {
		b.extra.Store(int64(extra))
	}
	return b
}

// Acquire claims up to max extra workers and returns how many were granted
// (possibly zero). Every grant must be returned with Release.
func (b *Budget) Acquire(max int) int {
	if b == nil || max <= 0 {
		return 0
	}
	for {
		have := b.extra.Load()
		if have <= 0 {
			return 0
		}
		take := int64(max)
		if take > have {
			take = have
		}
		if b.extra.CompareAndSwap(have, have-take) {
			return int(take)
		}
	}
}

// Release returns n previously acquired workers to the budget. Releasing
// into a nil budget is a no-op, so holders need not guard their cleanup.
func (b *Budget) Release(n int) {
	if b == nil || n <= 0 {
		return
	}
	b.extra.Add(int64(n))
}

// Extra reports the currently unclaimed allowance (diagnostics only; the
// value may be stale by the time the caller acts on it).
func (b *Budget) Extra() int {
	if b == nil {
		return 0
	}
	return int(b.extra.Load())
}

// For splits [0, n) into fixed shards of `grain` indices — boundaries depend
// only on n and grain, never on the worker count — and calls fn once per
// shard. The caller's goroutine always participates; up to shards-1 extra
// workers are borrowed from b (nil borrows none) and returned before For
// does. Shards are claimed dynamically, so callers get load balancing for
// free, but fn must make shard results independent of claim order: write
// only outputs derived from [lo, hi) and read only state that no shard
// writes. Under that contract the outcome is bit-identical to the serial
// loop at any worker count.
func For(b *Budget, n, grain int, fn func(lo, hi int)) {
	grain = max(grain, 1)
	if n <= grain || b.Extra() == 0 {
		for lo := 0; lo < n; lo += grain {
			fn(lo, min(lo+grain, n))
		}
		return
	}
	NewShared(n, grain, fn).Join(b)
}

// Shared is a For loop that any number of goroutines can run together:
// every joiner claims shards from one counter, so a goroutine that joins
// while others are running the loop takes the shards still unclaimed
// instead of waiting idle, and one that joins after the last shard was
// claimed only waits for the loop to finish. Shard boundaries and fn's
// contract are For's, so the outcome is identical however many goroutines
// joined and when.
type Shared struct {
	n, grain, shards int
	fn               func(lo, hi int)
	next             atomic.Int64
	left             sync.WaitGroup // shards not yet finished
}

// NewShared returns the loop over [0, n) in shards of grain indices; it
// runs nothing until the first Join.
func NewShared(n, grain int, fn func(lo, hi int)) *Shared {
	grain = max(grain, 1)
	n = max(n, 0)
	s := &Shared{n: n, grain: grain, shards: (n + grain - 1) / grain, fn: fn}
	s.left.Add(s.shards)
	return s
}

// Join runs unclaimed shards on the caller's goroutine, helped by up to
// one extra worker per further unclaimed shard borrowed from b (nil
// borrows none), and returns once every shard has finished — those other
// joiners claimed included. The borrowed workers are returned before Join
// does.
func (s *Shared) Join(b *Budget) {
	extra := 0
	if rest := s.shards - int(s.next.Load()) - 1; rest > 0 {
		extra = b.Acquire(rest)
	}
	for range extra {
		go s.drain()
	}
	s.drain()
	s.left.Wait()
	b.Release(extra)
}

// drain runs shards until none is left to claim.
func (s *Shared) drain() {
	for {
		i := int(s.next.Add(1) - 1)
		if i >= s.shards {
			return
		}
		lo := i * s.grain
		s.fn(lo, min(lo+s.grain, s.n))
		s.left.Done()
	}
}

// Ordered is the reduction form of For: eval runs once per fixed shard (in
// parallel, claim order unspecified) and combine consumes the shard results
// serially in ascending shard order. Because both the shard boundaries and
// the combine order are pure functions of n and grain, a non-associative
// reduction — float summation, first-wins merges — still yields the same
// result at any worker count. It only matches the plain serial loop
// bit-for-bit when the combine operation is associative over the shard
// split (min/max merges, integer sums); use it where that holds, or accept
// the shard-structured order as the definition.
func Ordered[T any](b *Budget, n, grain int, eval func(lo, hi int) T, combine func(T)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	shards := (n + grain - 1) / grain
	results := make([]T, shards)
	For(b, shards, 1, func(slo, shi int) {
		for s := slo; s < shi; s++ {
			lo := s * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			results[s] = eval(lo, hi)
		}
	})
	for i := range results {
		combine(results[i])
	}
}
