package ooc

import (
	"sync"
	"sync/atomic"

	"hep/internal/shard"
	"hep/internal/vheap"
)

// This file is the region state of the Buffered partitioner's expanders
// (expand_par.go): the per-expander growing state (expanderState), the
// candidate-iteration warm start over the batch's replica-bucket index, and
// the region planner (expandPlan) that grants regions to the W ≥ 1
// expanders of a batch.

// expanderState is one expander's region-growing scratch: the membership of
// the region currently being grown, the undo list that clears it, the
// min-external-degree heap driving core moves, and the candidate assembly
// buffer. Sized by the batch vertex bound so no operation reallocates; one
// state exists per expander goroutine.
type expanderState struct {
	member   []bool      // region membership of the current region
	touched  []int32     // members of the current region (for reset)
	heap     *vheap.Heap // region members keyed by external degree
	cands    []int32     // warm-start candidate assembly buffer
	seedBase int32       // concurrent seed-scan origin (strided per worker)
	seedCur  int32       // concurrent seed-scan offset from seedBase, ≤ nv
}

func newExpanderState(maxV int) *expanderState {
	return &expanderState{
		member:  make([]bool, maxV),
		touched: make([]int32, 0, maxV),
		heap:    vheap.NewWithCap(maxV, maxV),
		cands:   make([]int32, 0, maxV),
	}
}

// bytes returns the state's allocation, charged against the buffer budget.
func (ex *expanderState) bytes() int64 {
	return int64(cap(ex.member)) + int64(cap(ex.touched))*4 +
		ex.heap.Bytes() + int64(cap(ex.cands))*4
}

// clearRegion resets the membership written by the current region.
func (ex *expanderState) clearRegion() {
	for _, v := range ex.touched {
		ex.member[v] = false
	}
	ex.touched = ex.touched[:0]
}

// warmInto assembles the warm-start candidates for partition p from the
// batch's bucket index into dst: the bucketed vertices replicated on p plus
// the overflow vertices probing true. It returns the candidates and the
// number of per-vertex probes spent on the overflow list — the only
// remaining per-region probe cost, which the probe-counter regression test
// pins near zero (the retired path probed every batch vertex once per
// region, k full scans per batch).
func (st *batchState) warmInto(dst []int32, reps *shard.AtomicTable, p int) ([]int32, int64) {
	dst = dst[:0]
	dst = append(dst, st.buckets.Bucket(p)...)
	var probes int64
	for _, v := range st.buckets.Overflow() {
		probes++
		if reps.Has(st.verts[v], p) {
			dst = append(dst, v)
		}
	}
	return dst, probes
}

// warmRescan probes every batch vertex against the live replica table — the
// repeat-region warm start. A second region into the same partition must see
// the replicas the partition's first region added this batch, and those
// postdate the batch-start bucket index, so the rescan pays one probe per
// batch vertex instead.
func (st *batchState) warmRescan(dst []int32, reps *shard.AtomicTable, p int) ([]int32, int64) {
	dst = dst[:0]
	for v := range st.verts {
		if reps.Has(st.verts[v], p) {
			dst = append(dst, int32(v))
		}
	}
	return dst, int64(len(st.verts))
}

// expandPlan coordinates the concurrent expanders of one batch: it grants
// regions (a target partition plus an edge quota) to workers, keeping the
// in-flight partitions distinct, folding each worker's load deltas through
// the shard lanes at every region boundary, and recording how many expanders
// were ever in flight at once. All grants see capacity through counts that
// include every finished region (FoldSnapshot folds before picking), so the
// balance bound holds exactly at every W.
type expandPlan struct {
	mu       sync.Mutex
	loads    *shard.ShardedLoads
	counts   []int64 // folded snapshot scratch, len k
	inflight []bool  // partitions currently being expanded
	granted  []bool  // partitions granted at least once this batch
	nIn      int
	peak     int // max simultaneous expanders
	regions  int // regions granted
	maxReg   int
	capacity int64
	quota    int64 // base quota per region (⌈batch/k⌉)

	total   int64        // batch edges
	claimed atomic.Int64 // edges claimed so far (workers add at region end)
	probes  atomic.Int64 // overflow warm probes (workers add per region)
	rescans atomic.Int64 // repeat regions that rescanned for fresh replicas

	stop atomic.Bool
	err  error
}

func newExpandPlan(loads *shard.ShardedLoads, k int, capacity, quota, total int64) *expandPlan {
	return &expandPlan{
		loads:    loads,
		counts:   make([]int64, k),
		inflight: make([]bool, k),
		granted:  make([]bool, k),
		maxReg:   k,
		capacity: capacity,
		quota:    quota,
		total:    total,
	}
}

// next folds worker w's load lane, releases its previous region (prev ≥ 0)
// and grants the next one: the least-loaded partition below capacity that no
// other expander is growing, with the quota clamped to the partition's
// remaining capacity. repeat reports that the granted partition already had
// a region this batch, so the grantee's warm start must rescan the live
// replica table instead of the batch-start bucket index. ok is false when
// the batch is exhausted, the region budget is spent, every admissible
// partition is taken, or the plan aborted.
func (pl *expandPlan) next(w, prev int) (p int, quota int64, repeat, ok bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if prev >= 0 {
		pl.inflight[prev] = false
		pl.nIn--
	}
	pl.loads.FoldSnapshot(w, pl.counts)
	if pl.stop.Load() || pl.regions >= pl.maxReg || pl.claimed.Load() >= pl.total {
		return -1, 0, false, false
	}
	p = -1
	for q := range pl.counts {
		if pl.inflight[q] || pl.counts[q] >= pl.capacity {
			continue
		}
		if p < 0 || pl.counts[q] < pl.counts[p] {
			p = q
		}
	}
	if p < 0 {
		return -1, 0, false, false
	}
	quota = pl.quota
	if room := pl.capacity - pl.counts[p]; quota > room {
		quota = room
	}
	repeat = pl.granted[p]
	pl.granted[p] = true
	pl.inflight[p] = true
	pl.nIn++
	if pl.nIn > pl.peak {
		pl.peak = pl.nIn
	}
	pl.regions++
	return p, quota, repeat, true
}

// release folds worker w's lane and returns region p without asking for a
// new grant — the exit path of a worker whose seeds are exhausted.
func (pl *expandPlan) release(w, p int) {
	pl.mu.Lock()
	pl.loads.FoldSnapshot(w, pl.counts)
	pl.inflight[p] = false
	pl.nIn--
	pl.mu.Unlock()
}

// fail records the first worker error and aborts every expander promptly:
// workers observe stop at their next candidate, core-move or grant and
// return instead of growing the rest of the batch.
func (pl *expandPlan) fail(err error) {
	pl.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	pl.mu.Unlock()
	pl.stop.Store(true)
}
