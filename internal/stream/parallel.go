package stream

import (
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/shard"
)

// This file is the scoring side of the parallel sharded streaming engine
// (internal/shard): a BatchPlacer that runs the one HDRF scorer (bestHDRF)
// against the concurrent replica table and a bounded-staleness load
// snapshot.
//
// Semantics versus the sequential runners: replica state is shared exactly
// (every worker sees every Add as soon as the CAS lands), so the dominant
// replication-factor signal is never stale. Load bounds are refreshed once
// per batch — a worker sees the global counts as of its last batch boundary
// plus its own in-batch increments — so the balance term and the capacity
// check can be off by at most the edges the other workers placed within one
// batch. Placements therefore depend on worker interleaving and are NOT
// run-to-run deterministic for Workers > 1; Workers ≤ 1 routes to the exact
// sequential code path. Assignment *delivery* (sink order, res.M) is always
// in stream order, whatever the interleaving (shard's ordered collector).

// hdrfWorker is one placement worker: reps is where replica masks are read
// (the shared atomic table for plain/informed streaming, a frozen prior
// table for re-streaming), table is where replica bits are written.
// local is the worker's bounded-staleness load view — a full pstate.Loads
// tracker reloaded from the folded global counts at each batch boundary and
// advanced per own assignment within the batch, so the in-batch loop has
// exactly the sequential runner's semantics (rotating argmin included)
// against a view that lags other workers by at most one batch.
type hdrfWorker struct {
	id       int
	reps     RepView
	table    *shard.AtomicTable
	loads    *shard.ShardedLoads
	deg      []int32
	lambda   float64
	capacity int64
	local    *pstate.Loads
}

func newHDRFWorker(id int, reps RepView, sh *part.Shared, deg []int32, lambda float64, capacity int64) *hdrfWorker {
	return &hdrfWorker{
		id:       id,
		reps:     reps,
		table:    sh.Table,
		loads:    sh.Loads,
		deg:      deg,
		lambda:   lambda,
		capacity: capacity,
		local:    pstate.NewLoads(sh.Loads.K()),
	}
}

// PlaceBatch implements shard.BatchPlacer: reload the local load view from
// the folded global state, place every edge of the batch against it, fold
// the local deltas back.
func (w *hdrfWorker) PlaceBatch(edges []graph.Edge, parts []int32) {
	w.loads.Snapshot(w.local.Counts())
	w.local.Recompute()
	for i := range edges {
		u, v := edges[i].U, edges[i].V
		p := bestHDRF(w.reps, w.local, u, v, w.deg[u], w.deg[v], w.lambda, w.capacity)
		if p < 0 {
			// Every partition at capacity in the worker's view: least
			// loaded, mirroring the sequential Loads.ArgMin fallback.
			p = w.local.ArgMin()
		}
		w.table.Add(u, p)
		w.table.Add(v, p)
		w.local.Inc(p)
		w.loads.Inc(w.id, p)
		parts[i] = int32(p)
	}
	w.loads.Fold(w.id)
}

// sizeBatches resolves the batch policy for one parallel run. An explicit
// opts.BatchEdges pins fixed-size batches at that literal value (and turns
// adaptive sizing off unless opts.AdaptiveBatch asks for it); BatchEdges = 0
// takes the shard.FixedBatch ceiling — batches scale with the stream so the
// total staleness window (W workers × one batch) stays around 2% of the
// edges — with capacity-aware adaptive sizing on by default varying batch
// sizes below that ceiling from the live load bounds. Count-less streams
// (totalM ≤ 0) keep the DefaultBatchEdges ceiling instead of collapsing to
// the floor, and their unbounded capacity pins the adaptive policy at the
// ceiling too.
func sizeBatches(opts *shard.Options, loads *shard.ShardedLoads, capacity, totalM int64, workers int) {
	adaptive := opts.AdaptiveBatch || opts.BatchEdges <= 0
	if opts.BatchEdges <= 0 {
		opts.BatchEdges = shard.FixedBatch(totalM, workers)
	}
	if adaptive && opts.Sizer == nil {
		opts.Sizer = shard.NewAdaptiveSizer(loads, capacity, workers, opts.BatchEdges)
	}
	opts.AdaptiveBatch = adaptive
}

// RunHDRFParallel is RunHDRF through the sharded engine: the edge stream is
// split into batches and placed by opts.Resolve() workers scoring against
// the shared concurrent replica state. res may carry warm informed state
// (HEP §3.3) exactly like the sequential runner. With one worker it routes
// to RunHDRF — the exact sequential semantics.
func RunHDRFParallel(src graph.EdgeStream, res *part.Result, deg []int32, lambda, alpha float64, totalM int64, opts shard.Options) error {
	workers := opts.Resolve()
	if workers <= 1 {
		return RunHDRF(src, res, deg, lambda, alpha, totalM)
	}
	capacity := capFor(alpha, totalM, res.K)
	sh := res.Shared(workers).SetObs(opts.Obs)
	defer sh.Finish()
	// Size batches from totalM, never src.NumEdges(): a count-less stream
	// (NumEdges() == 0, count unknown) would collapse the batch to the 256
	// floor and pay ~16× the per-batch synchronization on large streams.
	sizeBatches(&opts, sh.Loads, capacity, totalM, workers)
	ws := make([]shard.BatchPlacer, workers)
	for i := range ws {
		ws[i] = newHDRFWorker(i, sh.Table, sh, deg, lambda, capacity)
	}
	return shard.Run(src, ws, opts, func(edges []graph.Edge, parts []int32) {
		for i := range edges {
			sh.Deliver(edges[i].U, edges[i].V, int(parts[i]))
		}
		sh.SampleQuality(opts.Hub)
	})
}

// RunHDRFWithStateParallel is the parallel informed re-streaming pass:
// replica affinity is scored against a *frozen* prior result (its table is
// only read, so the workers share it), loads and the replica table being
// built come from res. With one worker it routes to RunHDRFWithState.
func RunHDRFWithStateParallel(src graph.EdgeStream, res, state *part.Result, deg []int32, lambda, alpha float64, totalM int64, opts shard.Options) error {
	workers := opts.Resolve()
	if workers <= 1 {
		return RunHDRFWithState(src, res, state, deg, lambda, alpha, totalM)
	}
	capacity := capFor(alpha, totalM, res.K)
	sh := res.Shared(workers).SetObs(opts.Obs)
	defer sh.Finish()
	// Like RunHDRFParallel: batches size from the trusted totalM, not a
	// possibly count-less stream.
	sizeBatches(&opts, sh.Loads, capacity, totalM, workers)
	ws := make([]shard.BatchPlacer, workers)
	for i := range ws {
		ws[i] = newHDRFWorker(i, state.Reps, sh, deg, lambda, capacity)
	}
	return shard.Run(src, ws, opts, func(edges []graph.Edge, parts []int32) {
		for i := range edges {
			sh.Deliver(edges[i].U, edges[i].V, int(parts[i]))
		}
		sh.SampleQuality(opts.Hub)
	})
}

// RunHDRFParallelEdges places an in-memory edge slice with the sharded
// engine against res's state, with an explicit capacity bound — the
// out-of-core buffered partitioner's concurrent per-edge fallback (its
// leftover batch edges are already materialized, so batches alias the slice
// and nothing is copied). Delivery is in slice order.
func RunHDRFParallelEdges(edges []graph.Edge, res *part.Result, deg []int32, lambda float64, capacity int64, opts shard.Options) {
	workers := opts.Resolve()
	if workers < 1 {
		workers = 1
	}
	// RunSlice batches alias the slice and cost no dispatch copying, so a
	// fixed size suffices; the slice is small (leftover batch edges), making
	// adaptive shrinkage moot.
	if opts.BatchEdges <= 0 {
		opts.BatchEdges = shard.FixedBatch(int64(len(edges)), workers)
	}
	sh := res.Shared(workers).SetObs(opts.Obs)
	defer sh.Finish()
	ws := make([]shard.BatchPlacer, workers)
	for i := range ws {
		ws[i] = newHDRFWorker(i, sh.Table, sh, deg, lambda, capacity)
	}
	shard.RunSlice(edges, ws, opts, func(edges []graph.Edge, parts []int32) {
		for i := range edges {
			sh.Deliver(edges[i].U, edges[i].V, int(parts[i]))
		}
		sh.SampleQuality(opts.Hub)
	})
}
