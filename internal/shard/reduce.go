package shard

import (
	"errors"
	"fmt"
	"sync"

	"hep/internal/obs"
)

// This file is the reduction side of the batch engine: per-worker
// accumulator lanes for commutative folds (the load-delta discipline of
// ShardedLoads generalized to arbitrary int32/int64 arrays). A worker adds
// deltas into its own lane on the hot path — single writer, no
// synchronization — and folds the lane into the mutex-guarded global array
// at batch boundaries. Because addition commutes, the folded result does not
// depend on the worker interleaving.

// ErrOverflow is returned by a lane fold whose global accumulator would wrap
// (e.g. an int32 degree count exceeding MaxInt32 on a pathological
// multigraph). Wrapping silently would corrupt every downstream consumer of
// the folded array, so the fold detects it and fails the pass instead.
var ErrOverflow = errors.New("shard: accumulator overflow in lane fold")

// Accum is the element type of a reduction lane.
type Accum interface {
	~int32 | ~int64
}

// Lanes is a set of per-worker accumulator arrays folded into one global
// array. Add is lock-free (single writer per lane); Fold merges one lane
// under a mutex, touching only the index window the lane dirtied since its
// last fold, so folding at every batch boundary costs O(window), not O(n).
// Arrays grow on demand, which lets passes over count-less streams discover
// the index domain as they go.
type Lanes[T Accum] struct {
	mu     sync.Mutex
	global []T
	lanes  []lane[T]
	obs    *obs.Counters
}

type lane[T Accum] struct {
	acc    []T
	lo, hi int // dirty index window [lo, hi) since the last fold
}

// NewLanes returns lanes for w workers over an initial domain of n indices.
func NewLanes[T Accum](w, n int) *Lanes[T] {
	l := &Lanes[T]{global: make([]T, n), lanes: make([]lane[T], w)}
	for i := range l.lanes {
		l.lanes[i] = lane[T]{acc: make([]T, n), lo: n}
	}
	return l
}

// Add accumulates d at index i in worker w's lane, growing the lane if i is
// beyond its current domain. Only worker w may call it.
func (l *Lanes[T]) Add(w, i int, d T) {
	ln := &l.lanes[w]
	if i >= len(ln.acc) {
		ln.acc = append(ln.acc, make([]T, i+1-len(ln.acc))...)
	}
	ln.acc[i] += d
	if i < ln.lo {
		ln.lo = i
	}
	if i >= ln.hi {
		ln.hi = i + 1
	}
}

// SetObs installs a fold-window counter sink (nil = disabled).
func (l *Lanes[T]) SetObs(c *obs.Counters) { l.obs = c }

// Fold merges worker w's dirty window into the global array and clears it.
// Deltas are required to be non-negative (counting folds); a merge that
// would wrap the accumulator returns ErrOverflow.
func (l *Lanes[T]) Fold(w int) error {
	ln := &l.lanes[w]
	if ln.hi <= ln.lo {
		return nil
	}
	l.obs.Add(w, obs.CtrFolds, 1)
	l.mu.Lock()
	if len(l.global) < len(ln.acc) {
		l.global = append(l.global, make([]T, len(ln.acc)-len(l.global))...)
	}
	var err error
	for i := ln.lo; i < ln.hi; i++ {
		d := ln.acc[i]
		if d == 0 {
			continue
		}
		ln.acc[i] = 0
		s := l.global[i] + d
		if d > 0 && s < l.global[i] {
			err = fmt.Errorf("%w: index %d", ErrOverflow, i)
			break
		}
		l.global[i] = s
	}
	l.mu.Unlock()
	ln.lo, ln.hi = len(ln.acc), 0
	return err
}

// Drain folds every lane and returns the global array. Call once, after all
// workers have stopped; it catches any deltas a worker accumulated after its
// last batch-boundary fold.
func (l *Lanes[T]) Drain() ([]T, error) {
	for w := range l.lanes {
		if err := l.Fold(w); err != nil {
			return nil, err
		}
	}
	return l.global, nil
}
