package ooc

import (
	"fmt"
	"slices"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/pstate"
)

// runCollected runs a Buffered configuration with a collecting sink.
func runCollected(t *testing.T, b *Buffered, g graph.EdgeStream, k int) (*part.Result, *part.Collect) {
	t.Helper()
	col := &part.Collect{}
	b.Sink = col
	res, err := b.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	b.Sink = nil
	return res, col
}

// TestWarmIntoMatchesRescan pins the warm start against a live-table scan:
// at batch start the bucket index (plus overflow probes) must yield exactly
// the batch vertices the replica table holds on p — as a set, for every p —
// both with the default bucket pool and with a pool so small that most
// vertices spill to the overflow list.
func TestWarmIntoMatchesRescan(t *testing.T) {
	const k = 32
	g := gen.MustDataset("OK").Build(0.1)
	// Replica state left by earlier batches: a full run's table.
	prior, err := (&Buffered{BufferEdges: 1 << 14, Workers: 1}).Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	batch := g.E[:1<<12]
	for _, pool := range []int{-1, 64} {
		st := newBatchState(len(batch), k)
		seen := make(map[graph.V]bool)
		for _, e := range batch {
			for _, v := range []graph.V{e.U, e.V} {
				if !seen[v] {
					seen[v] = true
					st.verts = append(st.verts, v)
				}
			}
		}
		if pool >= 0 {
			st.buckets = pstate.NewBuckets(k, pool, len(st.verts))
		}
		st.buckets.Build(prior.Reps, st.verts)
		if pool >= 0 && len(st.buckets.Overflow()) == 0 {
			t.Fatalf("pool=%d: no vertex overflowed", pool)
		}
		for p := 0; p < k; p++ {
			var got, want []graph.V
			probes := st.warmInto(prior.Reps, p, func(v graph.V) { got = append(got, v) })
			if probes != int64(len(st.buckets.Overflow())) {
				t.Fatalf("pool=%d p=%d: %d probes for %d overflow vertices", pool, p, probes, len(st.buckets.Overflow()))
			}
			for v, g := range st.verts {
				if prior.Reps.Has(g, p) {
					want = append(want, graph.V(v))
				}
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("pool=%d p=%d: bucket candidates %v, live table %v", pool, p, got, want)
			}
		}
	}
}

// TestWarmStartProbeRegression pins that the warm start never scans the
// batch once per partition: the bucket build iterates each batch vertex's
// mask once per batch (WarmMaskPasses is independent of k), and the one
// per-partition probe path — bucket-pool overflow — stays unused on the
// stand-ins, where a per-partition scan would pay k probes per batch vertex.
func TestWarmStartProbeRegression(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.1)
		var passes [2]int64
		for i, k := range []int{32, 128} {
			b := &Buffered{BufferEdges: 1 << 14}
			if _, err := b.Partition(g, k); err != nil {
				t.Fatal(err)
			}
			st := b.LastStats
			if st.WarmMaskPasses <= 0 {
				t.Fatalf("%s k=%d: no mask passes recorded", name, k)
			}
			if st.WarmScanProbes != 0 {
				t.Errorf("%s k=%d: %d per-partition warm probes (want 0: pool overflow)", name, k, st.WarmScanProbes)
			}
			// A per-partition scan would have cost Regions × batch vertices —
			// k times the bucket build. The whole warm start must stay at
			// one mask iteration per batch vertex.
			if st.Regions < int64(k) {
				t.Fatalf("%s k=%d: only %d regions grown", name, k, st.Regions)
			}
			passes[i] = st.WarmMaskPasses
		}
		if passes[0] != passes[1] {
			t.Errorf("%s: WarmMaskPasses depends on k: %d at k=32, %d at k=128", name, passes[0], passes[1])
		}
	}
}

// TestParallelExpansionExactlyOnce pins the batch pipeline's contracts at
// every Workers: every batch edge assigned exactly once, replica state
// consistent, each edge delivered once to the sink, and the kernel placing
// edges. A 128-edge fallback threshold lets leftover batches take the
// parallel fallback at W ≥ 2; run under -race this doubles as its race test.
func TestParallelExpansionExactlyOnce(t *testing.T) {
	for _, name := range []string{"OK", "TW"} {
		g := gen.MustDataset(name).Build(0.1)
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/W=%d", name, workers), func(t *testing.T) {
				b := &Buffered{BufferEdges: 1 << 14, Workers: workers, ParallelFallbackMin: 128}
				res, col := runCollected(t, b, g, 32)
				if err := res.Validate(); err != nil {
					t.Fatal(err)
				}
				if err := parttest.CheckExactlyOnce(g, res, col); err != nil {
					t.Fatal(err)
				}
				if err := parttest.CheckReplicas(res, col); err != nil {
					t.Fatal(err)
				}
				if b.LastStats.ExpansionEdges == 0 {
					t.Fatal("no edges placed by expansion")
				}
			})
		}
	}
}

// TestParallelExpansionTinyBatches drives the batch pipeline through
// degenerate shapes — batches smaller than the worker count, k exceeding the
// batch, single-edge buffers — where the spill, leftover and parallel
// fallback edge cases all trigger.
func TestParallelExpansionTinyBatches(t *testing.T) {
	graphs := map[string]*graph.MemGraph{
		"ba":   gen.BarabasiAlbert(600, 4, 7),
		"star": gen.Star(64),
		"tiny": graph.NewMemGraph(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
	}
	for gname, g := range graphs {
		for _, buf := range []int{1, 7, 128} {
			for _, k := range []int{2, 5, 16} {
				b := &Buffered{BufferEdges: buf, Workers: 4, ParallelFallbackMin: 1}
				if _, err := parttest.RunAndCheck(b, g, k, 1.05, 2); err != nil {
					t.Errorf("%s buf=%d k=%d: %v", gname, buf, k, err)
				}
			}
		}
	}
}

// TestBudgetBoundSmallBufferLargeK pins the documented PeakBufferBytes
// bound in the regime where O(k) state dwarfs the per-edge slack: a
// 64-edge buffer at k=256 must still stay within BytesPerBufferedEdge per
// buffered edge, because the bucket heads and the expansion order and
// limits are fixed resident baseline, not buffer-scaled state.
func TestBudgetBoundSmallBufferLargeK(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 11)
	const bufEdges = 64
	b := &Buffered{BufferEdges: bufEdges}
	if _, err := b.Partition(g, 256); err != nil {
		t.Fatal(err)
	}
	if bound := int64(bufEdges) * BytesPerBufferedEdge; b.LastStats.PeakBufferBytes > bound {
		t.Fatalf("peak buffer %d exceeds documented bound %d (k=256, %d-edge buffer)",
			b.LastStats.PeakBufferBytes, bound, bufEdges)
	}
}

// TestParallelExpansionLowDegreeBatch is the seed-scan linearity regression:
// a matching-like batch (every vertex degree 1) empties the kernel's heap
// after every placed edge, so each edge costs one seed choice. If the seed
// cursor ever stopped skipping dead positions permanently, this test would
// degenerate from linear to quadratic in the batch size and time out
// instead of finishing in well under a second.
func TestParallelExpansionLowDegreeBatch(t *testing.T) {
	const m = 1 << 17
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(2 * i), V: graph.V(2*i + 1)}
	}
	g := graph.NewMemGraph(2*m, edges)
	b := &Buffered{BufferEdges: m, Workers: 2}
	res, err := b.Partition(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != int64(m) {
		t.Fatalf("assigned %d of %d edges", res.M, m)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBufferedSelfLoopsAndDuplicates feeds Buffered an input with
// self-loops and duplicate edges (both orientations): the batch CSR skips
// the self-loops, which go to the fallback, and every edge — duplicates
// included — must be placed exactly once at every Workers.
func TestBufferedSelfLoopsAndDuplicates(t *testing.T) {
	base := gen.BarabasiAlbert(500, 4, 21)
	var edges []graph.Edge
	for i, e := range base.E {
		edges = append(edges, e)
		switch i % 7 {
		case 0:
			edges = append(edges, graph.Edge{U: e.U, V: e.U})
		case 3:
			edges = append(edges, e, graph.Edge{U: e.V, V: e.U})
		}
	}
	g := graph.NewMemGraph(base.NumVertices(), edges)
	for _, workers := range []int{1, 2} {
		for _, buf := range []int{97, 1 << 12} {
			b := &Buffered{BufferEdges: buf, Workers: workers, ParallelFallbackMin: 16}
			if _, err := parttest.RunAndCheck(b, g, 8, 1.05, 2); err != nil {
				t.Errorf("W=%d buf=%d: %v", workers, buf, err)
			}
			if b.LastStats.FallbackEdges == 0 {
				t.Errorf("W=%d buf=%d: self-loops did not reach the fallback", workers, buf)
			}
		}
	}
}

// TestBufferedLeftoversWithinBalance forces kernel leftovers: at k=128 a
// 99-edge batch gives each partition a one-edge limit, and half the
// partitions are pre-loaded to capacity, so their limits leave no room and
// the kernel can place at most 64 edges. A batch of disjoint triangles
// reaches the sink by spilling past the last partition in the order (each
// core move places one edge and spills two onward); a power-law batch
// reaches it through Algorithm 3's remainder. Every leftover must be
// placed by the fallback, each edge exactly once, and no partition may
// pass the capacity.
func TestBufferedLeftoversWithinBalance(t *testing.T) {
	const k, capacity, nb = 128, 100, 99
	var triangles []graph.Edge
	for v := graph.V(0); v < nb; v += 3 {
		triangles = append(triangles, graph.Edge{U: v, V: v + 1}, graph.Edge{U: v + 1, V: v + 2}, graph.Edge{U: v + 2, V: v})
	}
	ok := gen.MustDataset("OK").Build(0.05)
	batches := map[string]*graph.MemGraph{
		"triangles": graph.NewMemGraph(nb, triangles),
		"OK":        graph.NewMemGraph(ok.NumVertices(), ok.E[:nb]),
	}
	for name, g := range batches {
		deg, _, err := graph.Degrees(g)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		for _, workers := range []int{1, 2} {
			b := &Buffered{Workers: workers, ParallelFallbackMin: 1}
			st := newBatchState(nb, k)
			st.batch = append(st.batch[:0], g.E...)
			// Two synthetic vertices outside the batch fill partitions 64..127.
			res := part.NewResult(n+2, k)
			col := &part.Collect{}
			res.Sink = col
			all := slices.Clone(g.E)
			for p := k / 2; p < k; p++ {
				for i := 0; i < capacity; i++ {
					res.Assign(graph.V(n), graph.V(n+1), p)
					all = append(all, graph.Edge{U: graph.V(n), V: graph.V(n + 1)})
				}
			}
			localID := make([]int32, n+2)
			for i := range localID {
				localID[i] = -1
			}
			b.processBatch(st, localID, res, append(deg, 1, 1), 1.1, capacity)

			stats := b.LastStats
			if stats.FallbackEdges == 0 || stats.ExpansionEdges+stats.FallbackEdges != nb {
				t.Fatalf("%s W=%d: expansion %d + fallback %d, want %d with a fallback share",
					name, workers, stats.ExpansionEdges, stats.FallbackEdges, nb)
			}
			if err := parttest.CheckExactlyOnce(graph.NewMemGraph(n+2, all), res, col); err != nil {
				t.Fatalf("%s W=%d: %v", name, workers, err)
			}
			if err := res.Validate(); err != nil {
				t.Fatalf("%s W=%d: %v", name, workers, err)
			}
			for p, c := range res.Counts {
				if c > capacity {
					t.Fatalf("%s W=%d: partition %d holds %d edges, capacity %d", name, workers, p, c, capacity)
				}
			}
		}
	}
}
