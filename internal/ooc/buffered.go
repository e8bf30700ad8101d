package ooc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hep/internal/dne"
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/shard"
	"hep/internal/stream"
)

// DefaultBufferEdges is the default batch size B (1Mi edges ≈ 128 MiB of
// batch-local state at one expander, see BytesPerBufferedEdge).
const DefaultBufferEdges = 1 << 20

// BytesPerBufferedEdge is the worst-case batch-local allocation per buffered
// edge with a single expander. Per edge: the edge itself (8) + two adjacency
// entries (adjV+adjE, 2×8) + a claim slot (4) + the parallel fallback's
// gather buffer (8, allocated only when Workers > 1 but charged always so
// the budget bound holds in every mode) = 36 bytes. Per batch vertex, of
// which an edge introduces at most two: verts (4) + off (4) + warm bucket
// pool (warmPoolPerVertex×4 = 12) + overflow (4) = 24, plus the expander
// state (member 1 + touched 4 + heap pos/ids/keys 12 + candidate buffer 4 =
// 21) = 45 bytes. Total 36 + 2·45 = 126, rounded up to 128 for slack.
// batchState.bytes() tracks the real allocation against this bound.
// State that does not scale with the buffer — the O(|V|) vertex arrays
// (degree array, local-id map, vertex-major replica table) and the O(k)
// per-partition arrays (bucket heads, region flags, like the result's own
// counts) — is the fixed resident baseline of the out-of-core model, not
// part of the buffer budget.
const BytesPerBufferedEdge = 128

// BytesPerExpanderEdge is the additional worst-case batch-local allocation
// per buffered edge for each expander goroutine beyond the first: two batch
// vertices × (member 1 + touched 4 + heap 12 + candidates 4) = 42 bytes,
// rounded up to 44. Region expansion runs up to Workers expanders;
// BufferForBudgetWorkers folds this into the sizing.
const BytesPerExpanderEdge = 44

// BufferForBudget returns the largest buffer size B whose worst-case
// batch-local allocation fits budgetBytes with a single expander (capped so
// the batch-local int32 bookkeeping cannot overflow).
func BufferForBudget(budgetBytes int64) int {
	return BufferForBudgetWorkers(budgetBytes, 1)
}

// BufferForBudgetWorkers is BufferForBudget for a run with w concurrent
// expanders: each expander beyond the first charges BytesPerExpanderEdge per
// buffered edge, so a parallel run under a byte budget gets a smaller buffer
// rather than a broken bound.
func BufferForBudgetWorkers(budgetBytes int64, w int) int {
	per := int64(BytesPerBufferedEdge)
	if w > 1 {
		per += int64(w-1) * BytesPerExpanderEdge
	}
	b := budgetBytes / per
	if b > maxBufferEdges {
		b = maxBufferEdges
	}
	return int(b)
}

// BufferedStats instruments a Buffered run.
type BufferedStats struct {
	// Batches is the number of buffer fills processed.
	Batches int
	// Regions is the number of expansion regions grown.
	Regions int64
	// ExpansionEdges counts edges placed by neighborhood expansion.
	ExpansionEdges int64
	// FallbackEdges counts edges placed by the per-edge informed-HDRF
	// fallback (cross-region edges the expansion left behind).
	FallbackEdges int64
	// PeakBufferBytes is the high-water mark of buffer-scaled batch-local
	// allocations (edge buffer, mini-CSR, per-batch vertex state, bucket
	// pool, claim array and expander states; the O(k) fixed baseline is
	// excluded). Guaranteed to stay ≤ BytesPerBufferedEdge +
	// (Workers−1)·BytesPerExpanderEdge per buffered edge.
	PeakBufferBytes int64

	// ParallelBatches counts batches whose regions were grown by two or
	// more concurrent expanders (Workers > 1 and the batch cleared
	// ParallelExpandMin). It is 0 at Workers ≤ 1, where every batch runs
	// one expander.
	ParallelBatches int
	// PeakExpanders is the largest number of regions ever in flight at
	// once: 1 at Workers ≤ 1 (one expander grows one region at a time),
	// ≥ 2 whenever a parallel batch had two admissible partitions.
	PeakExpanders int

	// WarmMaskPasses counts batch vertices indexed by the warm-start bucket
	// build: one per batch vertex per batch, independent of k (the build
	// walks each counted vertex's replica mask a small constant number of
	// times — see pstate.Buckets — never once per region like the retired
	// scan).
	WarmMaskPasses int64
	// WarmScanProbes counts per-vertex replica probes spent on the warm
	// start outside the bucket build: bucket-pool overflow probes and the
	// one probe per batch vertex of each repeat-region rescan. The retired
	// warm start paid one probe per batch vertex per region — k·vertices
	// per batch; the regression suite pins this near zero.
	WarmScanProbes int64
	// WarmRescans counts repeat regions (same partition expanded twice in
	// one batch) that had to rescan the live replica table because the
	// batch-start bucket index predates the first region's replicas.
	WarmRescans int64
}

// Buffered is the buffered streaming edge partitioner of the out-of-core
// engine, in the spirit of buffered streaming edge partitioning (Chhabra et
// al., 2024): it fills a B-edge buffer from the stream, builds a mini-CSR
// over the batch, and grows NE++-style expansion regions over it — a region
// is seeded by a vertex with replica affinity to the target partition
// (stitching the batch onto the global state left by earlier batches),
// expands by moving the minimum-external-degree member to the core, and
// assigns exactly the edges internal to the region. Edges the expansion
// leaves behind (cross-region edges, capacity overflow) fall back to
// per-edge informed HDRF over the global replica state.
//
// Resident state is O(|V|) vertex arrays plus O(B) batch-local buffers; the
// edge list is streamed twice (degree pass + partition pass) and never
// materialized.
//
// Quality scales with the buffer: at B ≈ |E|/4 the partitioner clearly
// beats plain HDRF on power-law graphs, while for B below a few percent of
// |E| the tiny expansion regions lose their edge over per-edge streaming
// (the same buffer/quality trade the buffered streaming literature
// reports). Size B as large as the budget allows.
type Buffered struct {
	part.SinkHolder

	// BufferEdges is the buffer size B in edges (default DefaultBufferEdges).
	// Derive it from a byte budget with BufferForBudget (or
	// BufferForBudgetWorkers when running concurrent expanders).
	BufferEdges int
	// Lambda is the HDRF fallback balance weight (default 1.1).
	Lambda float64
	// Alpha is the balance bound α ≥ 1 (default 1.05).
	Alpha float64
	// Workers is the number of region expanders per batch (see
	// expand_par.go): each grows a region into a distinct partition and
	// claims edges by CAS on the batch claim array. Workers > 1 also fans
	// out the mini-CSR fill and the per-edge informed-HDRF fallback
	// through the sharded engine; the degree pass is single-goroutine at
	// every Workers. Workers ≤ 1 is the one-expander case of the same
	// code: one goroutine grows one region at a time, so placement is
	// deterministic — the determinism guarantee. With more expanders,
	// which edges each region claims depends on worker interleaving.
	Workers int
	// BatchEdges pins the sharded engine's fan-out batch size for the
	// parallel fallback (0 = the engine default).
	BatchEdges int
	// ParallelFallbackMin is the minimum number of leftover edges worth
	// fanning out (0 = default 2048; below it the sequential loop wins).
	ParallelFallbackMin int
	// ParallelExpandMin is the minimum batch size worth growing regions
	// concurrently (0 = default 16Ki edges; below it one expander grows
	// the batch).
	ParallelExpandMin int
	// Obs is the observability hook (nil = disabled): the degree pass and
	// the buffered streaming loop record phase spans, and every LastStats
	// event additionally folds into the obs counter lanes at batch
	// boundaries — the single observability surface LastStats is the
	// per-run view of.
	Obs *obs.Obs

	// LastStats holds the statistics of the most recent run.
	LastStats BufferedStats

	// expandFault, if set, is called by every concurrent expander once per
	// region grant; a non-nil error aborts the batch. Test-only: the race
	// suite uses it to verify the abort discipline.
	expandFault func(worker int) error
}

// Name implements part.Algorithm.
func (b *Buffered) Name() string { return "Buffered" }

// maxBufferEdges caps the buffer so the batch-local int32 bookkeeping
// cannot overflow: adjacency offsets and local vertex ids range up to
// 2·bufEdges and warm-bucket pool offsets up to 2·warmPoolPerVertex·bufEdges,
// all of which must stay within int32.
const maxBufferEdges = math.MaxInt32 / (2 * warmPoolPerVertex)

// warmPoolPerVertex sizes the warm-start bucket pool: on average this many
// replica entries per batch vertex before vertices spill to the overflow
// list (comfortably above the replication factors power-law runs produce,
// so overflow probes — counted by WarmScanProbes — stay near zero).
const warmPoolPerVertex = 3

func (b *Buffered) params() (bufEdges int, lambda, alpha float64) {
	bufEdges = b.BufferEdges
	if bufEdges <= 0 {
		bufEdges = DefaultBufferEdges
	}
	if bufEdges > maxBufferEdges {
		bufEdges = maxBufferEdges
	}
	lambda = b.Lambda
	if lambda == 0 {
		lambda = stream.DefaultLambda
	}
	alpha = b.Alpha
	if alpha < 1 {
		alpha = 1.05
	}
	return bufEdges, lambda, alpha
}

// batchState holds the reusable batch-local arrays. Everything here is
// allocated once per Partition call, sized by the buffer, and counted
// against the buffer budget.
type batchState struct {
	batch []graph.Edge // the buffered edges

	verts []graph.V // local id -> global id
	off   []int32   // CSR segment ends: segment(v) = adj[start(v):off[v]]

	adjV []int32 // adjacency: neighbor local id
	adjE []int32 // adjacency: batch edge index

	// buckets is the warm-start index: batch vertices bucketed by hosting
	// partition, one mask iteration per vertex per batch.
	buckets *pstate.Buckets

	// expanders holds one region-growing state per expander goroutine.
	// Grown on demand, counted against the buffer budget.
	expanders []*expanderState

	// claims is the expanders' shared edge-claim array: after expansion,
	// the unclaimed batch edges are the fallback's share.
	claims *dne.Claims

	// fbEdges gathers the leftover edges for the parallel fallback
	// (allocated lazily on the first parallel fallback, charged always).
	fbEdges []graph.Edge

	// fbEngineEdges counts the edges of the current batch the parallel
	// fallback routed through the sharded engine, which folds them into
	// CtrEdgesStreamed itself — the batch-boundary fold subtracts them so
	// the progress signal counts every edge exactly once.
	fbEngineEdges int64
}

func newBatchState(bufEdges, k int) *batchState {
	maxV := 2 * bufEdges
	return &batchState{
		batch:     make([]graph.Edge, 0, bufEdges),
		verts:     make([]graph.V, 0, maxV),
		off:       make([]int32, maxV),
		adjV:      make([]int32, 2*bufEdges),
		adjE:      make([]int32, 2*bufEdges),
		buckets:   pstate.NewBuckets(k, warmPoolPerVertex*maxV, maxV),
		expanders: []*expanderState{newExpanderState(maxV)},
		claims:    dne.NewClaims(bufEdges),
	}
}

// ensureExpanders grows the expander-state pool to w entries.
func (st *batchState) ensureExpanders(w int) {
	maxV := len(st.off)
	for len(st.expanders) < w {
		st.expanders = append(st.expanders, newExpanderState(maxV))
	}
}

// bytes returns the total buffer-scaled batch-local allocation — the
// quantity BytesPerBufferedEdge bounds. The O(k) bucket heads belong to the
// fixed resident baseline and are excluded, like the O(|V|) vertex arrays.
func (st *batchState) bytes() int64 {
	b := int64(cap(st.batch))*8 +
		int64(cap(st.verts))*4 + int64(cap(st.off))*4 +
		int64(cap(st.adjV))*4 + int64(cap(st.adjE))*4 +
		st.buckets.Bytes() - int64(st.buckets.K()+1)*4 +
		st.claims.Bytes() + int64(cap(st.fbEdges))*8
	for _, ex := range st.expanders {
		b += ex.bytes()
	}
	return b
}

// workersOrOne clamps the Workers knob for the mini-CSR fill fan-out: the
// zero value historically means sequential here (unlike shard.Options,
// whose 0 resolves to all cores).
func (b *Buffered) workersOrOne() int {
	if b.Workers < 1 {
		return 1
	}
	return b.Workers
}

// Partition implements part.Algorithm: an exact chunked degree pass, then
// buffer-fill / expand / flush over the stream.
func (b *Buffered) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("ooc: k must be ≥ 1, got %d", k)
	}
	bufEdges, lambda, alpha := b.params()
	b.LastStats = BufferedStats{}

	// Exact chunked degree pass, single-goroutine at every Workers.
	sp := b.Obs.Span("degree-pass")
	deg, m, err := DegreePass(src)
	if err != nil {
		return nil, err
	}
	sp.Edges(m).End()
	// Per-pass denominator: the progress reporter scopes percentages to the
	// current root phase, so the degree pass and the partition pass each run
	// 0→100% over m edges.
	b.Obs.SetTotalEdges(m)
	if m > 0 && int64(bufEdges) > m {
		bufEdges = int(m) // no point sizing the buffer past the graph
	}
	n := src.NumVertices()
	if len(deg) > n {
		n = len(deg)
	}
	res := part.NewResult(n, k)
	res.Sink = b.Sink
	capacity := int64(math.Ceil(alpha * float64(m) / float64(k)))

	// O(|V|) resident baseline: global degrees (deg) and the local-id map.
	localID := make([]int32, n)
	for i := range localID {
		localID[i] = -1
	}

	st := newBatchState(bufEdges, k)
	b.LastStats.PeakBufferBytes = st.bytes()

	run := func() error {
		if err := b.processBatch(st, localID, res, deg, lambda, capacity); err != nil {
			return err
		}
		if by := st.bytes(); by > b.LastStats.PeakBufferBytes {
			b.LastStats.PeakBufferBytes = by
		}
		b.Obs.Counters().SetMax(obs.GaugePeakBufferBytes, b.LastStats.PeakBufferBytes)
		st.batch = st.batch[:0]
		return nil
	}
	sp = b.Obs.Span("expand-stream")
	var batchErr error
	if cs, ok := graph.AsChunks(src); ok {
		// Chunk-lending source: fill the buffer by bulk copy from the lent
		// slabs instead of one append per edge. Buffer boundaries fall at
		// exactly the same edge offsets as the per-edge path, so the batches
		// — and every placement downstream — are bit-identical.
		err = cs.Chunks(func(edges []graph.Edge, release func()) bool {
			defer release()
			b.Obs.Counters().Add(0, obs.CtrChunksLent, 1)
			for len(edges) > 0 {
				take := bufEdges - len(st.batch)
				if take > len(edges) {
					take = len(edges)
				}
				st.batch = append(st.batch, edges[:take]...)
				edges = edges[take:]
				if len(st.batch) == bufEdges {
					if batchErr = run(); batchErr != nil {
						return false
					}
				}
			}
			return true
		})
	} else {
		err = src.Edges(func(u, v graph.V) bool {
			st.batch = append(st.batch, graph.Edge{U: u, V: v})
			if len(st.batch) == bufEdges {
				batchErr = run()
				return batchErr == nil
			}
			return true
		})
	}
	if err != nil {
		return nil, err
	}
	if batchErr != nil {
		return nil, batchErr
	}
	if len(st.batch) > 0 {
		if err := run(); err != nil {
			return nil, err
		}
	}
	sp.Edges(m).End()
	return res, nil
}

// processBatch builds the mini-CSR over st.batch and places every batch edge.
//
//hep:unsync single-goroutine batch phases; atomic cursor bumps on off are confined to fillAdjacencyParallel
func (b *Buffered) processBatch(st *batchState, localID []int32, res *part.Result, deg []int32, lambda float64, capacity int64) error {
	b.LastStats.Batches++
	pre := b.LastStats
	st.fbEngineEdges = 0
	batch := st.batch

	// Local vertex ids and batch degrees (off holds the degree counts
	// until the prefix sum below turns them into fill cursors).
	st.verts = st.verts[:0]
	local := func(g graph.V) {
		lid := localID[g]
		if lid < 0 {
			lid = int32(len(st.verts))
			localID[g] = lid
			st.verts = append(st.verts, g)
			st.off[lid] = 0
		}
		st.off[lid]++
	}
	for i := range batch {
		local(batch[i].U)
		local(batch[i].V)
	}
	nv := len(st.verts)

	// CSR offsets: off[v] is the fill cursor during construction and the
	// *end* of v's segment afterwards; start(v) is off[v-1] (0 for v=0).
	var sum int32
	for v := 0; v < nv; v++ {
		d := st.off[v]
		st.off[v] = sum
		sum += d
	}
	if w := b.workersOrOne(); w > 1 && len(batch) >= parallelFillMin {
		b.fillAdjacencyParallel(st, localID, w)
	} else {
		for i := range batch {
			lu, lv := localID[batch[i].U], localID[batch[i].V]
			st.adjV[st.off[lu]], st.adjE[st.off[lu]] = lv, int32(i)
			st.off[lu]++
			st.adjV[st.off[lv]], st.adjE[st.off[lv]] = lu, int32(i)
			st.off[lv]++
		}
	}

	// Warm-start index: every batch vertex's replica mask iterated once,
	// bucketing vertices by hosting partition — the candidate iteration
	// that retired the one-probe-per-vertex-per-region warm scan.
	st.buckets.Build(res.Reps, st.verts)
	b.LastStats.WarmMaskPasses += int64(nv)

	remaining, err := b.expandParallel(st, res, capacity, b.expandWorkers(len(batch), res.K))
	if err != nil {
		return err
	}
	if remaining > 0 {
		b.fallback(st, res, deg, lambda, capacity)
	}

	// Reset the shared local-id map for the next batch.
	for _, g := range st.verts {
		localID[g] = -1
	}

	// Batch-boundary fold: every LastStats delta this batch produced goes
	// into the obs counter lanes in one pass, keeping the hot loops above
	// counter-free. Edges the parallel fallback already streamed through the
	// engine (which folds its own totals) are subtracted from the progress
	// signal.
	c := b.Obs.Counters()
	c.Add(0, obs.CtrBatches, 1)
	c.Add(0, obs.CtrEdgesStreamed, int64(len(batch))-st.fbEngineEdges)
	c.Add(0, obs.CtrRegions, b.LastStats.Regions-pre.Regions)
	c.Add(0, obs.CtrExpansionEdges, b.LastStats.ExpansionEdges-pre.ExpansionEdges)
	c.Add(0, obs.CtrFallbackEdges, b.LastStats.FallbackEdges-pre.FallbackEdges)
	c.Add(0, obs.CtrWarmMaskPasses, b.LastStats.WarmMaskPasses-pre.WarmMaskPasses)
	c.Add(0, obs.CtrWarmScanProbes, b.LastStats.WarmScanProbes-pre.WarmScanProbes)
	c.Add(0, obs.CtrWarmRescans, b.LastStats.WarmRescans-pre.WarmRescans)
	c.Add(0, obs.CtrParallelBatches, int64(b.LastStats.ParallelBatches-pre.ParallelBatches))
	c.Add(0, obs.CtrWarmSpills, int64(len(st.buckets.Overflow())))
	c.SetMax(obs.GaugePeakExpanders, int64(b.LastStats.PeakExpanders))
	// One quality sample per buffered batch: running RF, balance and load
	// spread land in the series ring right after the counter fold, on the
	// same batch boundary — never per edge or per region.
	res.SampleQuality(b.Obs)
	return nil
}

// start returns the adjacency segment start of local vertex v.
//
//hep:unsync off is frozen (segment ends) once the adjacency fill completes; this phase only reads it
func (st *batchState) start(v int32) int32 {
	if v == 0 {
		return 0
	}
	return st.off[v-1]
}

// parallelFillMin is the batch size below which the sequential mini-CSR
// adjacency fill beats fanning out claim goroutines.
const parallelFillMin = 1 << 14

// fillAdjacencyParallel is the concurrent form of the mini-CSR adjacency
// fill: the batch is split into contiguous ranges and each worker claims
// slots with atomic cursor bumps on the offset array — the DNE-style claim
// discipline. Segment contents match the sequential fill as sets;
// within-segment order depends on worker interleaving, which is covered by
// the Workers > 1 nondeterminism contract.
func (b *Buffered) fillAdjacencyParallel(st *batchState, localID []int32, workers int) {
	batch := st.batch
	chunk := (len(batch) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(batch) {
			break
		}
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				lu, lv := localID[batch[i].U], localID[batch[i].V]
				su := atomic.AddInt32(&st.off[lu], 1) - 1
				st.adjV[su], st.adjE[su] = lv, int32(i)
				sv := atomic.AddInt32(&st.off[lv], 1) - 1
				st.adjV[sv], st.adjE[sv] = lu, int32(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// defaultParallelFallbackMin is the leftover-edge count below which the
// sequential fallback beats spinning up the engine.
const defaultParallelFallbackMin = 2048

// fallback places every batch edge the expanders left unclaimed with
// per-edge informed HDRF (exact global degrees, global replica state) — the
// escape hatch for cross-region edges and capacity overflow. With
// Workers > 1 and enough leftovers, placement fans out through the parallel
// sharded engine.
func (b *Buffered) fallback(st *batchState, res *part.Result, deg []int32, lambda float64, capacity int64) {
	if b.Workers > 1 && b.fallbackParallel(st, res, deg, lambda, capacity) {
		return
	}
	for i := range st.batch {
		if st.claims.Claimed(i) {
			continue
		}
		u, v := st.batch[i].U, st.batch[i].V
		p := stream.BestHDRF(res, u, v, deg[u], deg[v], lambda, capacity)
		if p < 0 {
			p = res.Loads.ArgMin()
		}
		res.Assign(u, v, p)
		b.LastStats.FallbackEdges++
	}
}

// fallbackParallel gathers the batch's unassigned edges and places them with
// the sharded engine, reporting whether it ran (false = too few leftovers;
// the sequential loop handles them). Sink delivery stays in batch order.
func (b *Buffered) fallbackParallel(st *batchState, res *part.Result, deg []int32, lambda float64, capacity int64) bool {
	min := b.ParallelFallbackMin
	if min <= 0 {
		min = defaultParallelFallbackMin
	}
	if st.fbEdges == nil {
		// Preallocate at full buffer capacity so incremental append growth
		// can never push the gather buffer past the 8 bytes/edge charged in
		// BytesPerBufferedEdge.
		st.fbEdges = make([]graph.Edge, 0, cap(st.batch))
	}
	st.fbEdges = st.fbEdges[:0]
	for i := range st.batch {
		if !st.claims.Claimed(i) {
			st.fbEdges = append(st.fbEdges, st.batch[i])
		}
	}
	if len(st.fbEdges) < min {
		return false
	}
	b.LastStats.FallbackEdges += int64(len(st.fbEdges))
	st.fbEngineEdges = int64(len(st.fbEdges))
	stream.RunHDRFParallelEdges(st.fbEdges, res, deg, lambda, capacity,
		shard.Options{Workers: b.Workers, BatchEdges: b.BatchEdges, Obs: b.Obs.Counters(), Hub: b.Obs})
	return true
}
