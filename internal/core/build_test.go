package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/shard"
)

// csrImage is everything a CSR's consumers can observe: per-vertex pruning
// state, degree, segment offsets and contents in order, and E_h2h in spill
// order.
func csrImage(c *graph.CSR) (col []graph.V, meta []int64, h2h []graph.Edge) {
	for v := graph.V(0); int(v) < c.N(); v++ {
		oo, on := c.OutSpan(v)
		io, in := c.InSpan(v)
		high := int64(0)
		if c.IsHigh(v) {
			high = 1
		}
		meta = append(meta, oo, int64(on), io, int64(in), int64(c.Degree(v)), high)
		col = append(col, c.Out(v)...)
		col = append(col, c.In(v)...)
	}
	meta = append(meta, c.M(), c.InMemEdges(), c.ColLen())
	c.H2H().Edges(func(u, v graph.V) bool {
		h2h = append(h2h, graph.Edge{U: u, V: v})
		return true
	})
	return col, meta, h2h
}

func sameImage(a, b *graph.CSR) string {
	ac, am, ah := csrImage(a)
	bc, bm, bh := csrImage(b)
	switch {
	case !slices.Equal(am, bm):
		return "offsets, sizes, degrees or pruning differ"
	case !slices.Equal(ac, bc):
		return "column array differs"
	case !slices.Equal(ah, bh):
		return "E_h2h order differs"
	}
	return ""
}

// TestBuildCSRShardedBitIdentical pins the deprecated BuildCSRSharded
// forward to graph.BuildCSR on the paper's stand-ins at W ∈ {1, 2, 4}:
// the same column array entry for entry, the same size fields and the same
// E_h2h sequence — not just the same adjacency sets.
func TestBuildCSRShardedBitIdentical(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.05)
		for _, tau := range []float64{math.Inf(1), 10, 1.5} {
			seq, err := graph.BuildCSR(g, tau, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{1, 2, 4} {
				c, err := BuildCSRSharded(g, tau, nil, shard.Options{Workers: w, BatchEdges: 512})
				if err != nil {
					t.Fatalf("%s tau=%v W=%d: %v", name, tau, w, err)
				}
				if d := sameImage(seq, c); d != "" {
					t.Fatalf("%s tau=%v W=%d: %s", name, tau, w, d)
				}
			}
		}
	}
}

func TestBuildCSRShardedOneWorkerDelegates(t *testing.T) {
	g := graph.NewMemGraph(4, []graph.Edge{{U: 0, V: 1}})
	c, err := BuildCSRSharded(g, 10, nil, shard.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.M() != 1 {
		t.Fatal("delegation broken")
	}
}

func TestBuildCSRShardedRejectsBadInput(t *testing.T) {
	if _, err := BuildCSRSharded(graph.NewMemGraph(4, []graph.Edge{{U: 2, V: 2}}), 10, nil,
		shard.Options{Workers: 2}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := BuildCSRSharded(graph.NewMemGraph(2, []graph.Edge{{U: 0, V: 7}}), 10, nil,
		shard.Options{Workers: 2}); !errors.Is(err, graph.ErrVertexRange) {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := BuildCSRSharded(graph.NewMemGraph(2, nil), -1, nil,
		shard.Options{Workers: 2}); err == nil {
		t.Fatal("negative tau accepted")
	}
}
