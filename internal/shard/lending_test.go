package shard_test

import (
	"sync/atomic"
	"testing"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/shard"
)

// slabSource is a chunk-lending stream over pre-cut slabs with a per-slab
// release counter, so tests can pin the release-exactly-once discipline.
type slabSource struct {
	slabs    [][]graph.Edge
	n        int
	released []atomic.Int32
}

func newSlabSource(n, slabEdges, slabCount int) *slabSource {
	s := &slabSource{n: n, released: make([]atomic.Int32, slabCount)}
	x := 0
	for i := 0; i < slabCount; i++ {
		slab := make([]graph.Edge, slabEdges)
		for j := range slab {
			slab[j] = graph.Edge{U: graph.V(x % n), V: graph.V((3*x + 1) % n)}
			x++
		}
		s.slabs = append(s.slabs, slab)
	}
	return s
}

func (s *slabSource) NumVertices() int { return s.n }

func (s *slabSource) NumEdges() int64 {
	var m int64
	for _, sl := range s.slabs {
		m += int64(len(sl))
	}
	return m
}

func (s *slabSource) all() []graph.Edge {
	var out []graph.Edge
	for _, sl := range s.slabs {
		out = append(out, sl...)
	}
	return out
}

func (s *slabSource) Edges(yield func(u, v graph.V) bool) error {
	for _, sl := range s.slabs {
		for i := range sl {
			if !yield(sl[i].U, sl[i].V) {
				return nil
			}
		}
	}
	return nil
}

func (s *slabSource) Chunks(yield func(edges []graph.Edge, release func()) bool) error {
	for i, sl := range s.slabs {
		rc := &s.released[i]
		if !yield(sl, func() { rc.Add(1) }) {
			return nil
		}
	}
	return nil
}

// edgesOnly hides a stream's Chunks method, forcing the engine's per-edge
// copy path.
type edgesOnly struct{ s graph.EdgeStream }

func (e edgesOnly) NumVertices() int                          { return e.s.NumVertices() }
func (e edgesOnly) NumEdges() int64                           { return e.s.NumEdges() }
func (e edgesOnly) Edges(yield func(u, v graph.V) bool) error { return e.s.Edges(yield) }

// TestLendingOrderedDeliveryAndRelease pins the chunk-lending dispatch: for
// W ∈ {1, 2, 4} delivery is in exact stream order with every edge exactly
// once, every slab's release fires exactly once, and the dispatch-thread
// copy counters stay at zero.
func TestLendingOrderedDeliveryAndRelease(t *testing.T) {
	const k = 13
	for _, workers := range []int{1, 2, 4} {
		src := newSlabSource(997, 1000, 9)
		want := src.all()
		ws := make([]shard.BatchPlacer, workers)
		for i := range ws {
			ws[i] = &orderPlacer{k: k}
		}
		c := obs.NewCounters(workers)
		var got []part.TaggedEdge
		err := shard.Run(src, ws, shard.Options{BatchEdges: 128, Obs: c}, func(edges []graph.Edge, parts []int32) {
			for i := range edges {
				got = append(got, part.TaggedEdge{E: edges[i], P: int(parts[i])})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("W=%d: delivered %d of %d edges", workers, len(got), len(want))
		}
		for i := range got {
			wantP := int((want[i].U + 3*want[i].V) % graph.V(k))
			if got[i].E != want[i] || got[i].P != wantP {
				t.Fatalf("W=%d: delivery %d = %v→%d, want %v→%d", workers, i, got[i].E, got[i].P, want[i], wantP)
			}
		}
		for i := range src.released {
			if n := src.released[i].Load(); n != 1 {
				t.Fatalf("W=%d: slab %d released %d times, want exactly 1", workers, i, n)
			}
		}
		if n := c.Total(obs.CtrChunksLent); n != int64(len(src.slabs)) {
			t.Fatalf("W=%d: chunks_lent = %d, want %d", workers, n, len(src.slabs))
		}
		if n := c.Total(obs.CtrBytesCopiedDispatch); n != 0 {
			t.Fatalf("W=%d: bytes_copied_dispatch = %d on the lending path, want 0", workers, n)
		}
		if n := c.Total(obs.CtrChunkCopyFallbacks); n != 0 {
			t.Fatalf("W=%d: chunk_copy_fallbacks = %d on the lending path, want 0", workers, n)
		}
	}
}

// TestCopyDispatchForcesCopyPath pins the CopyDispatch escape hatch and its
// counters: the same lending source dispatched with CopyDispatch delivers
// identically but copies every edge on the dispatch thread.
func TestCopyDispatchForcesCopyPath(t *testing.T) {
	for _, workers := range []int{1, 3} {
		src := newSlabSource(503, 700, 4)
		m := src.NumEdges()
		ws := make([]shard.BatchPlacer, workers)
		for i := range ws {
			ws[i] = &orderPlacer{k: 7}
		}
		c := obs.NewCounters(workers)
		var delivered int64
		err := shard.Run(src, ws, shard.Options{BatchEdges: 256, Obs: c, CopyDispatch: true},
			func(edges []graph.Edge, parts []int32) { delivered += int64(len(edges)) })
		if err != nil {
			t.Fatal(err)
		}
		if delivered != m {
			t.Fatalf("W=%d: delivered %d of %d edges", workers, delivered, m)
		}
		if n := c.Total(obs.CtrChunksLent); n != 0 {
			t.Fatalf("W=%d: chunks_lent = %d under CopyDispatch, want 0", workers, n)
		}
		if n := c.Total(obs.CtrBytesCopiedDispatch); n != m*8 {
			t.Fatalf("W=%d: bytes_copied_dispatch = %d, want %d", workers, n, m*8)
		}
		if n := c.Total(obs.CtrChunkCopyFallbacks); n == 0 {
			t.Fatalf("W=%d: chunk_copy_fallbacks = 0 under CopyDispatch", workers)
		}
		// CopyDispatch never yields slabs, so nothing was lent or released.
		for i := range src.released {
			if n := src.released[i].Load(); n != 0 {
				t.Fatalf("W=%d: slab %d released %d times without being lent", workers, i, n)
			}
		}
	}
}

// TestLendingSizerSlicesSlabs pins sizer-driven slab slicing: a Fixed sizer
// cuts every slab at its boundaries (delivered batch lengths), and a
// size-alternating sizer folds batch_resizes.
func TestLendingSizerSlicesSlabs(t *testing.T) {
	src := newSlabSource(101, 1000, 3)
	ws := []shard.BatchPlacer{&orderPlacer{k: 5}, &orderPlacer{k: 5}}
	var sizes []int
	err := shard.Run(src, ws, shard.Options{BatchEdges: 4096, Sizer: shard.Fixed(100)},
		func(edges []graph.Edge, parts []int32) { sizes = append(sizes, len(edges)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 30 {
		t.Fatalf("got %d batches, want 30", len(sizes))
	}
	for i, n := range sizes {
		if n != 100 {
			t.Fatalf("batch %d has %d edges, want 100", i, n)
		}
	}

	src = newSlabSource(101, 1000, 2)
	c := obs.NewCounters(2)
	alt := &alternatingSizer{a: 100, b: 200}
	err = shard.Run(src, ws, shard.Options{BatchEdges: 4096, Sizer: alt, Obs: c},
		func(edges []graph.Edge, parts []int32) {})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Total(obs.CtrBatchResizes); n == 0 {
		t.Fatal("alternating sizer folded no batch_resizes")
	}
}

type alternatingSizer struct{ a, b, n int }

func (s *alternatingSizer) NextBatch() int {
	s.n++
	if s.n%2 == 0 {
		return s.a
	}
	return s.b
}

// TestRunOneReusesBatchBuffer is the W=1 allocation regression: the
// single-worker copy path must reuse one grow-only batch buffer for the
// whole run instead of allocating per batch, so allocations stay a small
// constant however many batches the stream spans.
func TestRunOneReusesBatchBuffer(t *testing.T) {
	edges := make([]graph.Edge, 200_000)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(i % 613), V: graph.V((5 * i) % 617)}
	}
	src := edgesOnly{s: graph.NewMemGraph(617, edges)}
	w := []shard.BatchPlacer{&orderPlacer{k: 3}}
	allocs := testing.AllocsPerRun(5, func() {
		err := shard.Run(src, w, shard.Options{Workers: 1, BatchEdges: 512}, func(edges []graph.Edge, parts []int32) {})
		if err != nil {
			t.Fatal(err)
		}
	})
	// ~390 batches per run; a per-batch allocation would show up as
	// hundreds. The fixed cost is the batch buffer, the parts buffer and a
	// handful of closures.
	if allocs > 16 {
		t.Fatalf("W=1 run allocated %.0f times, want a small batch-count-independent constant", allocs)
	}
}
