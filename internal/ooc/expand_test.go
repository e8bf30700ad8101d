package ooc

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/pstate"
	"hep/internal/shard"
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

// TestWarmIntoMatchesRescan pins the two warm-start forms against each
// other: at batch start, before any region adds a replica, the bucket index
// (plus overflow probes) must yield exactly the batch vertices the live
// table holds on p — as a set, for every p — both with the default bucket
// pool and with a pool so small that most vertices spill to the overflow
// list.
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
		reps := shard.FromTable(prior.Reps)
		for p := 0; p < k; p++ {
			got, _ := st.warmInto(nil, reps, p)
			want, probes := st.warmRescan(nil, reps, p)
			if probes != int64(len(st.verts)) {
				t.Fatalf("pool=%d p=%d: rescan probed %d of %d vertices", pool, p, probes, len(st.verts))
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("pool=%d p=%d: bucket candidates %v, live table %v", pool, p, got, want)
			}
		}
		prior.Reps = reps.Freeze()
	}
}

// TestWarmStartProbeRegression pins that the k-probe warm scan is actually
// gone: the bucket build iterates each batch vertex's mask once per batch
// (WarmMaskPasses is independent of k), and the remaining per-region probe
// paths — bucket-pool overflow and repeat-region rescans — stay unused on
// the stand-ins, where the retired path would have paid k probes per batch
// vertex.
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
				t.Errorf("%s k=%d: %d per-region warm probes (want 0: pool overflow or rescans)", name, k, st.WarmScanProbes)
			}
			if st.WarmRescans != 0 {
				t.Errorf("%s k=%d: %d repeat-region rescans", name, k, st.WarmRescans)
			}
			// The retired scan would have cost Regions × active vertices —
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

// TestRepeatRegionWarmRescan pins the repeat-region warm start: when the
// plan grants the same partition a second region within one batch (forced
// here by saturating k−2 partitions, so a four-region budget must re-grant
// each of the two admissible partitions), the second region rescans the live
// replica table — the batch-start bucket index predates every replica the
// partition's first region placed. With one expander the run is
// deterministic, so the rescan count is exact, and the RF must stay at or
// below staleBucketRF: the RF of this batch when repeat regions read the
// stale buckets instead, recorded from that retired path.
func TestRepeatRegionWarmRescan(t *testing.T) {
	const staleBucketRF = 1.6042134831460675
	g := gen.MustDataset("OK").Build(0.05)
	var edges []graph.Edge
	if err := g.Edges(func(u, v graph.V) bool {
		edges = append(edges, graph.Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	capacity := m // loose bound: the two live partitions never clamp a quota

	b := &Buffered{Workers: 1}
	st := newBatchState(len(edges), k)
	st.batch = append(st.batch[:0], edges...)
	// Two synthetic vertices (outside the batch) saturate partitions 2 and 3
	// before the batch runs, leaving partitions 0 and 1 as the only
	// admissible grant targets.
	res := part.NewResult(n+2, k)
	for i := int64(0); i < capacity; i++ {
		res.Assign(graph.V(n), graph.V(n+1), 2)
		res.Assign(graph.V(n), graph.V(n+1), 3)
	}
	localID := make([]int32, n+2)
	for i := range localID {
		localID[i] = -1
	}
	if err := b.processBatch(st, localID, res, deg, 1.1, capacity); err != nil {
		t.Fatal(err)
	}

	if got := b.LastStats.WarmRescans; got != 2 {
		t.Fatalf("%d repeat regions rescanned the replica table, want 2", got)
	}
	// Every batch edge is assigned exactly once on top of the synthetic
	// pre-load.
	if want := int64(len(edges)) + 2*capacity; res.M != want {
		t.Fatalf("%d assignments, want %d", res.M, want)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	// The rescan stitches a repeat region onto the replicas its partition's
	// first region just placed; the stale buckets cannot see them.
	if rf := res.ReplicationFactor(); rf > staleBucketRF {
		t.Errorf("warm-start RF %.4f worse than stale-bucket RF %.4f", rf, staleBucketRF)
	}
}

// TestParallelExpansionExactlyOnce is the concurrency half of the race
// suite: at W ∈ {2, 4, 8} the concurrent expanders must assign every batch
// edge exactly once (CAS claim storm on the batch claim array), keep replica
// state consistent, deliver each edge once to the sink, and actually grow
// regions concurrently (≥ 2 expanders in flight per parallel batch). Run
// under -race this doubles as the claim-storm and warm-bucket construction
// race test.
func TestParallelExpansionExactlyOnce(t *testing.T) {
	for _, name := range []string{"OK", "TW"} {
		g := gen.MustDataset(name).Build(0.1)
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/W=%d", name, workers), func(t *testing.T) {
				b := &Buffered{BufferEdges: 1 << 14, Workers: workers, ParallelExpandMin: 1}
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
				if b.LastStats.ParallelBatches == 0 {
					t.Fatal("no batch took the concurrent expansion path")
				}
				if b.LastStats.PeakExpanders < 2 {
					t.Fatalf("peak concurrent expanders %d, want ≥ 2", b.LastStats.PeakExpanders)
				}
				if b.LastStats.ExpansionEdges == 0 {
					t.Fatal("no edges placed by expansion")
				}
			})
		}
	}
}

// TestParallelExpansionTinyBatches drives the concurrent expanders through
// degenerate shapes — batches smaller than the worker count, k exceeding the
// batch, single-edge buffers — where the claim, grant and fallback edge
// cases all trigger.
func TestParallelExpansionTinyBatches(t *testing.T) {
	graphs := map[string]*graph.MemGraph{
		"ba":   gen.BarabasiAlbert(600, 4, 7),
		"star": gen.Star(64),
		"tiny": graph.NewMemGraph(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}),
	}
	for gname, g := range graphs {
		for _, buf := range []int{1, 7, 128} {
			for _, k := range []int{2, 5, 16} {
				b := &Buffered{BufferEdges: buf, Workers: 4, ParallelExpandMin: 1, ParallelFallbackMin: 1}
				if _, err := parttest.RunAndCheck(b, g, k, 1.05, 2); err != nil {
					t.Errorf("%s buf=%d k=%d: %v", gname, buf, k, err)
				}
			}
		}
	}
}

// TestParallelExpansionAbortsOnWorkerError pins the prompt-abort
// discipline at the region level: the first worker error stops
// every expander promptly and surfaces from Partition.
func TestParallelExpansionAbortsOnWorkerError(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.05)
	boom := errors.New("expander 1 exploded")
	b := &Buffered{BufferEdges: 1 << 13, Workers: 4, ParallelExpandMin: 1}
	b.expandFault = func(worker int) error {
		if worker == 1 {
			return boom
		}
		return nil
	}
	_, err := b.Partition(g, 32)
	if !errors.Is(err, boom) {
		t.Fatalf("Partition error = %v, want the injected worker fault", err)
	}
	// The abort must hit the first parallel batch: no batch after the
	// faulting one may have been processed.
	if b.LastStats.ParallelBatches != 1 {
		t.Fatalf("processed %d parallel batches after the fault, want 1", b.LastStats.ParallelBatches)
	}
}

// TestBufferForBudgetWorkers pins the workers-aware budget sizing: each
// expander beyond the first charges BytesPerExpanderEdge.
func TestBufferForBudgetWorkers(t *testing.T) {
	if b := BufferForBudgetWorkers(int64(BytesPerBufferedEdge+3*BytesPerExpanderEdge)*100, 4); b != 100 {
		t.Fatalf("W=4 sizing = %d, want 100", b)
	}
	if a, b := BufferForBudget(1<<20), BufferForBudgetWorkers(1<<20, 1); a != b {
		t.Fatalf("W=1 sizing %d != BufferForBudget %d", b, a)
	}
	if a, b := BufferForBudgetWorkers(1<<20, 8), BufferForBudget(1<<20); a >= b {
		t.Fatalf("W=8 buffer %d not smaller than W=1 %d", a, b)
	}
}

// TestParallelExpansionBudget pins the memory contract of the concurrent
// mode: with the buffer sized by BufferForBudgetWorkers, the tracked peak
// batch-local allocation — claim array and all expander states included —
// stays within the byte budget.
func TestParallelExpansionBudget(t *testing.T) {
	g := gen.MustDataset("OK").Build(0.25)
	const budget = 1 << 21
	const workers = 4
	bufEdges := BufferForBudgetWorkers(budget, workers)
	if bufEdges <= 0 || int64(bufEdges) >= g.NumEdges() {
		t.Fatalf("bad test sizing: buffer %d of %d edges", bufEdges, g.NumEdges())
	}
	b := &Buffered{BufferEdges: bufEdges, Workers: workers, ParallelExpandMin: 1}
	res, err := b.Partition(g, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
	}
	if b.LastStats.ParallelBatches == 0 {
		t.Fatal("no concurrent batches")
	}
	if b.LastStats.PeakBufferBytes > budget {
		t.Fatalf("peak buffer %d exceeds budget %d", b.LastStats.PeakBufferBytes, budget)
	}
}

// TestBudgetBoundSmallBufferLargeK pins the documented PeakBufferBytes
// bound in the regime where O(k) state dwarfs the per-edge slack: a
// 64-edge buffer at k=256 must still stay within BytesPerBufferedEdge per
// buffered edge, because the bucket heads and region flags are fixed
// resident baseline, not buffer-scaled state.
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
// a matching-like batch (every vertex degree 1) empties the expander heap
// after every placed edge, so each edge costs one seed choice. If the seed
// cursor ever stops hopping dead positions (exhausted vertices and passed
// members), this test degenerates from linear to quadratic in the batch
// size and times out instead of finishing in well under a second.
func TestParallelExpansionLowDegreeBatch(t *testing.T) {
	const m = 1 << 17
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.V(2 * i), V: graph.V(2*i + 1)}
	}
	g := graph.NewMemGraph(2*m, edges)
	b := &Buffered{BufferEdges: m, Workers: 2, ParallelExpandMin: 1}
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
