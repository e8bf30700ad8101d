package ooc

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"hep/internal/core"
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/shard"
	"hep/internal/stream"
)

// DefaultBufferEdges is the default batch size B (1Mi edges ≈ 156 MiB of
// batch-local state, see BytesPerBufferedEdge).
const DefaultBufferEdges = 1 << 20

// BytesPerBufferedEdge is the worst-case batch-local allocation per buffered
// edge. Per edge: the edge itself (8; after the batch CSR is built the same
// buffer holds the leftover list) + two column entries of the batch CSR
// (2×4) = 16 bytes. Per batch vertex, of which an edge introduces at most
// two:
//   - batch CSR: out and in segment starts (2×8, graph.CSR's int64
//     offsets), out and in size fields (2×4) and the batch degree (4) = 28
//     bytes, plus the high-degree bit (never set);
//   - the local→global id map the kernel places edges under: 4;
//   - warm-start index: bucket pool (warmPoolPerVertex×4 = 12) + overflow
//     slot (4) = 16;
//   - NE++ kernel: min-heap position, id and key (3×4 = 12) and the S_i and
//     pre-seeded S_{i+1} member lists (2×4 = 8) = 20 bytes, plus the core
//     and two secondary-set bits.
//
// That is 68 bytes and 4 bits per vertex, 16 + 2·68 + 1 = 153 per edge.
// Word rounding of the four bitsets and the offsets' extra entry add under
// 40 bytes per run, which 156 absorbs for every buffer of 10 edges or more.
// batchState.bytes() tracks the real allocation against this bound. State
// that does not scale with the buffer — the O(|V|) vertex arrays (degree
// array, local-id map, vertex-major replica table) and the O(k)
// per-partition arrays (bucket heads, expansion order and limits, like the
// result's own counts) — is the fixed resident baseline of the out-of-core
// model, not part of the buffer budget.
const BytesPerBufferedEdge = 156

// BytesPerExpanderEdge is 0: batches expand on one goroutine at every
// Workers, so extra workers add no buffer-scaled state. It stays exported
// only because the benchmark harness's buffered budget formula reads it.
const BytesPerExpanderEdge = 0

// BufferForBudget returns the largest buffer size B whose worst-case
// batch-local allocation fits budgetBytes (capped so the batch-local int32
// bookkeeping cannot overflow).
func BufferForBudget(budgetBytes int64) int {
	b := budgetBytes / BytesPerBufferedEdge
	if b > maxBufferEdges {
		b = maxBufferEdges
	}
	return int(b)
}

// BufferedStats instruments a Buffered run.
type BufferedStats struct {
	// Batches is the number of buffer fills processed.
	Batches int
	// Regions is the number of partition expansions the NE++ kernel ran:
	// at most k per batch, one per partition with room below its limit.
	Regions int64
	// ExpansionEdges counts edges placed by the NE++ kernel.
	ExpansionEdges int64
	// FallbackEdges counts edges placed by the per-edge informed-HDRF
	// fallback: the kernel's leftovers and the batch's self-loops.
	FallbackEdges int64
	// PeakBufferBytes is the high-water mark of buffer-scaled batch-local
	// allocations (edge buffer, batch CSR, local-id map, bucket pool and
	// kernel state; the O(k) fixed baseline is excluded). Guaranteed to
	// stay ≤ BytesPerBufferedEdge per buffered edge for buffers of 10 edges
	// and more.
	PeakBufferBytes int64

	// WarmMaskPasses counts batch vertices indexed by the warm-start bucket
	// build: one per batch vertex per batch, independent of k (the build
	// walks each counted vertex's replica mask a small constant number of
	// times — see pstate.Buckets — never once per partition).
	WarmMaskPasses int64
	// WarmScanProbes counts per-vertex replica probes spent on the warm
	// start outside the bucket build: the bucket-pool overflow probes. A
	// per-partition scan would pay one probe per batch vertex per
	// partition — k·vertices per batch; the regression suite pins this
	// near zero.
	WarmScanProbes int64
}

// Buffered is the buffered streaming edge partitioner of the out-of-core
// engine, the buffered model of Chhabra et al. (2024): it fills a B-edge
// buffer from the stream, builds a CSR over the batch, and partitions it
// with the same NE++ kernel HEP's in-memory phase runs (core.NEPP),
// informed by the global state left by earlier batches. Partitions expand
// in order of their load at batch start, each up to ⌈B/k⌉ edges above that
// load (never past the α capacity), and each starts warm: the batch
// vertices already replicated on it join its secondary set first, so edges
// between them land there at no replication cost. Edges the kernel does not
// place (spills past the last partition, the remainder after every
// partition expanded) and self-loops fall back to per-edge informed HDRF
// over the global replica state.
//
// Resident state is O(|V|) vertex arrays plus O(B) batch-local buffers; the
// edge list is streamed twice (degree pass + partition pass) and never
// materialized.
//
// Quality scales with the buffer: at B ≈ |E|/4 the partitioner clearly
// beats plain HDRF on power-law graphs, while for B below a few percent of
// |E| the tiny batch graphs lose their edge over per-edge streaming (the
// same buffer/quality trade the buffered streaming literature reports).
// Size B as large as the budget allows.
type Buffered struct {
	part.SinkHolder

	// BufferEdges is the buffer size B in edges (default DefaultBufferEdges).
	// Derive it from a byte budget with BufferForBudget.
	BufferEdges int
	// Lambda is the HDRF fallback balance weight (default 1.1).
	Lambda float64
	// Alpha is the balance bound α ≥ 1 (default 1.05).
	Alpha float64
	// Workers only fans out the per-edge informed-HDRF fallback: with
	// Workers > 1 and at least ParallelFallbackMin leftovers in a batch,
	// they are placed through the sharded engine. The degree pass, the
	// batch CSR and the NE++ kernel run on one goroutine at every Workers,
	// so placement is deterministic unless that parallel fallback runs.
	Workers int
	// BatchEdges pins the sharded engine's fan-out batch size for the
	// parallel fallback (0 = the engine default).
	BatchEdges int
	// ParallelFallbackMin is the minimum number of leftover edges worth
	// fanning out (0 = default 2048; below it the sequential loop wins).
	ParallelFallbackMin int
	// Obs is the observability hook (nil = disabled): the degree pass and
	// the buffered streaming loop record phase spans, and every LastStats
	// event additionally folds into the obs counter lanes at batch
	// boundaries — the single observability surface LastStats is the
	// per-run view of.
	Obs *obs.Obs

	// LastStats holds the statistics of the most recent run.
	LastStats BufferedStats
}

// Name implements part.Algorithm.
func (b *Buffered) Name() string { return "Buffered" }

// maxBufferEdges caps the buffer so the batch-local int32 bookkeeping
// cannot overflow: local vertex ids range up to 2·bufEdges and warm-bucket
// pool offsets up to 2·warmPoolPerVertex·bufEdges, all of which must stay
// within int32.
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

// batchState holds the reusable batch-local state. The buffer-scaled part
// is allocated once per Partition call and counted against the buffer
// budget; order, start and limits are O(k) baseline.
type batchState struct {
	// batch holds the buffered edges; once the batch CSR is built it is
	// drained and refilled with the batch's self-loops and the kernel's
	// leftovers, the fallback's share.
	batch []graph.Edge

	verts []graph.V  // local id -> global id
	csr   *graph.CSR // the batch graph over local ids

	// buckets is the warm-start index: batch vertices bucketed by hosting
	// partition, one mask iteration per vertex per batch.
	buckets *pstate.Buckets

	kern   *core.NEPP
	order  []int   // partitions by load at batch start
	start  []int64 // per-slot load at batch start
	limits []int64 // per-slot load limit

	// fbEngineEdges counts the edges of the current batch the parallel
	// fallback routed through the sharded engine, which folds them into
	// CtrEdgesStreamed itself — the batch-boundary fold subtracts them so
	// the progress signal counts every edge exactly once.
	fbEngineEdges int64
}

func newBatchState(bufEdges, k int) *batchState {
	maxV := 2 * bufEdges
	return &batchState{
		batch:   make([]graph.Edge, 0, bufEdges),
		verts:   make([]graph.V, 0, maxV),
		csr:     graph.NewCSRBuffer(maxV, bufEdges),
		buckets: pstate.NewBuckets(k, warmPoolPerVertex*maxV, maxV),
		kern:    core.NewKernel(maxV),
		order:   make([]int, k),
		start:   make([]int64, k),
		limits:  make([]int64, k),
	}
}

// bytes returns the total buffer-scaled batch-local allocation — the
// quantity BytesPerBufferedEdge bounds. The O(k) bucket heads belong to the
// fixed resident baseline and are excluded, like the O(|V|) vertex arrays.
func (st *batchState) bytes() int64 {
	return int64(cap(st.batch))*8 + int64(cap(st.verts))*4 + st.csr.MemBytes() +
		st.buckets.Bytes() - int64(st.buckets.K()+1)*4 + st.kern.Bytes()
}

// Partition implements part.Algorithm: an exact chunked degree pass, then
// buffer-fill / partition / flush over the stream.
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
	b.Obs.Counters().SetMax(obs.GaugePeakBufferBytes, b.LastStats.PeakBufferBytes)

	run := func() {
		b.processBatch(st, localID, res, deg, lambda, capacity)
		st.batch = st.batch[:0]
	}
	sp = b.Obs.Span("expand-stream")
	if cs, ok := graph.AsChunks(src); ok {
		// Chunk-lending source: fill the buffer by bulk copy from the lent
		// slabs instead of one append per edge. Buffer boundaries fall at
		// exactly the same edge offsets as the per-edge path, so the batches
		// — and every placement downstream — are bit-identical.
		err = cs.Chunks(func(edges []graph.Edge, release func()) bool {
			defer release()
			b.Obs.Counters().Add(0, obs.CtrChunksLent, 1)
			for len(edges) > 0 {
				take := min(bufEdges-len(st.batch), len(edges))
				st.batch = append(st.batch, edges[:take]...)
				edges = edges[take:]
				if len(st.batch) == bufEdges {
					run()
				}
			}
			return true
		})
	} else {
		err = src.Edges(func(u, v graph.V) bool {
			st.batch = append(st.batch, graph.Edge{U: u, V: v})
			if len(st.batch) == bufEdges {
				run()
			}
			return true
		})
	}
	if err != nil {
		return nil, err
	}
	if len(st.batch) > 0 {
		run()
	}
	sp.Edges(m).End()
	return res, nil
}

// processBatch builds the batch CSR over st.batch and places every batch
// edge: the NE++ kernel first, then the fallback for what it leaves.
func (b *Buffered) processBatch(st *batchState, localID []int32, res *part.Result, deg []int32, lambda float64, capacity int64) {
	b.LastStats.Batches++
	pre := b.LastStats
	st.fbEngineEdges = 0
	nb := len(st.batch)

	st.verts = st.csr.Refill(st.batch, localID, st.verts)
	nv := len(st.verts)

	// The batch is in the CSR now; its buffer becomes the leftover list,
	// starting with the self-loops the CSR skipped.
	loops := st.batch[:0]
	if st.csr.M() < int64(nb) {
		for _, e := range st.batch {
			if e.U == e.V {
				loops = append(loops, e)
			}
		}
	}
	st.batch = loops

	// Warm-start index: every batch vertex's replica mask iterated once,
	// bucketing vertices by hosting partition.
	st.buckets.Build(res.Reps, st.verts)
	b.LastStats.WarmMaskPasses += int64(nv)

	// Expansion order and limits: least-loaded partitions first, each
	// allowed ⌈B/k⌉ edges above its batch-start load, never past capacity.
	k := res.K
	quota := (st.csr.M() + int64(k) - 1) / int64(k)
	for p := range st.order {
		st.order[p] = p
	}
	slices.SortStableFunc(st.order, func(a, c int) int { return cmp.Compare(res.Counts[a], res.Counts[c]) })
	for i, p := range st.order {
		st.start[i] = res.Counts[p]
		st.limits[i] = min(st.start[i]+quota, capacity)
	}

	before := res.M
	st.kern.Reset(st.csr, res, core.Plan{
		IDs:        st.verts,
		Order:      st.order,
		Limits:     st.limits,
		SeedWindow: seedWindow,
		Warm: func(p int, join func(graph.V)) {
			b.LastStats.WarmScanProbes += st.warmInto(res.Reps, p, join)
		},
		Leftover: func(u, v graph.V) { st.batch = append(st.batch, graph.Edge{U: u, V: v}) },
	})
	st.kern.Run()
	b.LastStats.ExpansionEdges += res.M - before
	c := b.Obs.Counters()
	for i, p := range st.order {
		if placed := res.Counts[p] - st.start[i]; placed > 0 {
			b.LastStats.Regions++
			c.Observe(0, obs.HistRegionEdges, placed)
		}
	}

	if len(st.batch) > 0 {
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
	c.Add(0, obs.CtrBatches, 1)
	c.Add(0, obs.CtrEdgesStreamed, int64(nb)-st.fbEngineEdges)
	c.Add(0, obs.CtrRegions, b.LastStats.Regions-pre.Regions)
	c.Add(0, obs.CtrExpansionEdges, b.LastStats.ExpansionEdges-pre.ExpansionEdges)
	c.Add(0, obs.CtrFallbackEdges, b.LastStats.FallbackEdges-pre.FallbackEdges)
	c.Add(0, obs.CtrWarmMaskPasses, b.LastStats.WarmMaskPasses-pre.WarmMaskPasses)
	c.Add(0, obs.CtrWarmScanProbes, b.LastStats.WarmScanProbes-pre.WarmScanProbes)
	c.Add(0, obs.CtrWarmSpills, int64(len(st.buckets.Overflow())))
	// One quality sample per buffered batch: running RF, balance and load
	// spread land in the series ring right after the counter fold, on the
	// same batch boundary — never per edge or per partition.
	res.SampleQuality(b.Obs)
}

// warmInto calls join for every batch vertex (local id) replicated on
// partition p at batch start: the bucketed vertices, then the overflow
// vertices whose live replica probe hits. It returns the number of probes
// spent on the overflow list — the only per-partition probe cost, which the
// probe-counter regression test pins near zero (a per-partition scan of
// the whole batch would be k probes per batch vertex).
func (st *batchState) warmInto(reps *pstate.Table, p int, join func(graph.V)) int64 {
	for _, v := range st.buckets.Bucket(p) {
		join(graph.V(v))
	}
	for _, v := range st.buckets.Overflow() {
		if reps.Has(st.verts[v], p) {
			join(graph.V(v))
		}
	}
	return int64(len(st.buckets.Overflow()))
}

// seedWindow is the kernel's low-degree seed window for batches: cold seeds
// are the least-degree live vertex among the next 32 (the quality pin holds
// batches within 2% of the retired region expander's replication factor
// with it, and LJ k=128 lands 2.3% above without it).
const seedWindow = 32

// defaultParallelFallbackMin is the leftover-edge count below which the
// sequential fallback beats spinning up the engine.
const defaultParallelFallbackMin = 2048

// fallback places the batch's leftover list (st.batch, in global ids) with
// per-edge informed HDRF (exact global degrees, global replica state). With
// Workers > 1 and enough leftovers, placement fans out through the parallel
// sharded engine; sink delivery stays in list order either way.
func (b *Buffered) fallback(st *batchState, res *part.Result, deg []int32, lambda float64, capacity int64) {
	b.LastStats.FallbackEdges += int64(len(st.batch))
	min := b.ParallelFallbackMin
	if min <= 0 {
		min = defaultParallelFallbackMin
	}
	if b.Workers > 1 && len(st.batch) >= min {
		st.fbEngineEdges = int64(len(st.batch))
		stream.RunHDRFParallelEdges(st.batch, res, deg, lambda, capacity,
			shard.Options{Workers: b.Workers, BatchEdges: b.BatchEdges, Obs: b.Obs.Counters(), Hub: b.Obs})
		return
	}
	for _, e := range st.batch {
		p := stream.BestHDRF(res, e.U, e.V, deg[e.U], deg[e.V], lambda, capacity)
		if p < 0 {
			p = res.Loads.ArgMin()
		}
		res.Assign(e.U, e.V, p)
	}
}
