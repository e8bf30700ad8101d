package graph

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestCanonical(t *testing.T) {
	if (Edge{U: 5, V: 2}).Canonical() != (Edge{U: 2, V: 5}) {
		t.Fatal("canonical did not swap")
	}
	if (Edge{U: 2, V: 5}).Canonical() != (Edge{U: 2, V: 5}) {
		t.Fatal("canonical swapped needlessly")
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges([]Edge{{U: 3, V: 9}, {U: 0, V: 1}})
	if g.NumVertices() != 10 {
		t.Fatalf("n = %d, want 10", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if FromEdges(nil).NumVertices() != 0 {
		t.Fatal("empty edge list should give 0 vertices")
	}
}

func TestDegrees(t *testing.T) {
	g := NewMemGraph(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}})
	deg, m, err := Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 {
		t.Fatalf("m = %d", m)
	}
	want := []int32{1, 3, 1, 1}
	for v, d := range want {
		if deg[v] != d {
			t.Errorf("deg[%d] = %d, want %d", v, deg[v], d)
		}
	}
}

func TestDegreesRangeError(t *testing.T) {
	g := NewMemGraph(2, []Edge{{U: 0, V: 5}})
	if _, _, err := Degrees(g); err == nil {
		t.Fatal("expected range error")
	}
}

func TestMeanDegreeAndThreshold(t *testing.T) {
	if MeanDegree(0, 0) != 0 {
		t.Fatal("mean of empty graph")
	}
	if MeanDegree(4, 6) != 3 {
		t.Fatal("mean degree wrong")
	}
	if !HighDegree(10, 1.5, 6) {
		t.Fatal("10 > 9 should be high")
	}
	if HighDegree(9, 1.5, 6) {
		t.Fatal("9 == 9 should be low (strict inequality)")
	}
}

func TestSplitByTau(t *testing.T) {
	// Star + one extra edge among leaves: center degree 4, leaves 1-2.
	g := NewMemGraph(5, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 1, V: 2}})
	// mean = 2. tau=1 → high iff deg > 2: only the center (deg 4).
	rest, h2h, deg, err := SplitByTau(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deg[0] != 4 {
		t.Fatalf("deg[0] = %d", deg[0])
	}
	if len(h2h) != 0 {
		t.Fatalf("h2h = %v; single high vertex cannot form h2h edges", h2h)
	}
	if len(rest) != 5 {
		t.Fatalf("rest = %d", len(rest))
	}
	// tau=0.4 → high iff deg > 0.8: vertices 1,2 (deg 2) and 0 are high;
	// 3,4 (deg 1)… all degrees ≥ 1 > 0.8 so everything is high.
	rest, h2h, _, err = SplitByTau(g, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || len(h2h) != 5 {
		t.Fatalf("rest=%d h2h=%d, want 0/5", len(rest), len(h2h))
	}
}

func buildTestCSR(t *testing.T, n int, edges []Edge, tau float64) *CSR {
	t.Helper()
	c, err := BuildCSR(NewMemGraph(n, edges), tau, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCSRBasicLayout(t *testing.T) {
	// Figure 4's spirit: 5 vertices, center 2 is high at low tau.
	edges := []Edge{{U: 2, V: 0}, {U: 2, V: 1}, {U: 2, V: 3}, {U: 2, V: 4}, {U: 0, V: 1}}
	c := buildTestCSR(t, 5, edges, math.Inf(1))
	if c.N() != 5 || c.M() != 5 {
		t.Fatalf("n=%d m=%d", c.N(), c.M())
	}
	if c.InMemEdges() != 5 || c.H2H().Len() != 0 {
		t.Fatal("no pruning expected at tau=inf")
	}
	// Vertex 2: out-list {0,1,3,4}, in-list {}.
	if got := c.Out(2); len(got) != 4 {
		t.Fatalf("out(2) = %v", got)
	}
	if got := c.In(2); len(got) != 0 {
		t.Fatalf("in(2) = %v", got)
	}
	// Vertex 1: out {}, in {2, 0}.
	if got := c.In(1); len(got) != 2 {
		t.Fatalf("in(1) = %v", got)
	}
	if c.ValidDegree(2) != 4 || c.Degree(2) != 4 {
		t.Fatal("degree bookkeeping wrong")
	}
}

func TestCSRPruning(t *testing.T) {
	// Two hubs connected to each other and to leaves.
	edges := []Edge{
		{U: 0, V: 1}, // hub-hub
		{U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4},
		{U: 1, V: 5}, {U: 1, V: 6}, {U: 1, V: 7},
	}
	// n=8, m=7, mean=1.75. tau=1.5 → high iff deg > 2.625: hubs 0 (deg 4)
	// and 1 (deg 4).
	c := buildTestCSR(t, 8, edges, 1.5)
	if !c.IsHigh(0) || !c.IsHigh(1) || c.IsHigh(2) {
		t.Fatal("high-degree classification wrong")
	}
	if c.H2H().Len() != 1 {
		t.Fatalf("h2h = %d, want 1", c.H2H().Len())
	}
	if c.InMemEdges() != 6 {
		t.Fatalf("in-mem = %d, want 6", c.InMemEdges())
	}
	// Hubs own no lists.
	if len(c.Out(0))+len(c.In(0)) != 0 {
		t.Fatal("hub 0 has column entries")
	}
	// Leaf 2 sees the hub in its in-list.
	if in := c.In(2); len(in) != 1 || in[0] != 0 {
		t.Fatalf("in(2) = %v", in)
	}
	var h2h []Edge
	err := c.H2H().Edges(func(u, v V) bool {
		h2h = append(h2h, Edge{U: u, V: v})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h2h) != 1 || h2h[0] != (Edge{U: 0, V: 1}) {
		t.Fatalf("h2h edges = %v", h2h)
	}
}

func TestCSRRemoveSwaps(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}}
	c := buildTestCSR(t, 4, edges, math.Inf(1))
	out := c.Out(0)
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	first := out[0]
	c.RemoveOutAt(0, 0)
	out = c.Out(0)
	if len(out) != 2 {
		t.Fatalf("out after remove = %v", out)
	}
	for _, u := range out {
		if u == first {
			t.Fatalf("removed entry %d still present: %v", first, out)
		}
	}
	if c.ValidDegree(0) != 2 {
		t.Fatalf("valid degree = %d", c.ValidDegree(0))
	}
}

func TestCSRRejectsSelfLoopAndBadTau(t *testing.T) {
	if _, err := BuildCSR(NewMemGraph(2, []Edge{{U: 1, V: 1}}), 10, nil); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := BuildCSR(NewMemGraph(2, nil), 0, nil); err == nil {
		t.Fatal("tau=0 accepted")
	}
	if _, err := BuildCSR(NewMemGraph(2, nil), -1, nil); err == nil {
		t.Fatal("negative tau accepted")
	}
}

func TestCSRRangeError(t *testing.T) {
	if _, err := BuildCSR(NewMemGraph(2, []Edge{{U: 0, V: 7}}), 10, nil); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
}

// TestQuickCSRPreservesEdges: for random graphs and thresholds, the column
// array plus the H2H store must represent exactly the input edge multiset,
// with every low-low edge present in both endpoint lists and every low-high
// edge only on the low side.
func TestQuickCSRPreservesEdges(t *testing.T) {
	f := func(seed int64, rawTau uint8) bool {
		n := 50
		tau := 0.5 + float64(rawTau%40)/10 // 0.5 .. 4.4
		edges := randomSimpleEdges(seed, n, 120)
		g := NewMemGraph(n, edges)
		c, err := BuildCSR(g, tau, nil)
		if err != nil {
			return false
		}
		// Reconstruct: out-lists give (v,u) edges; h2h gives the rest.
		counts := map[Edge]int{}
		for _, e := range edges {
			counts[e.Canonical()]++
		}
		for v := 0; v < n; v++ {
			for _, u := range c.Out(V(v)) {
				counts[Edge{U: V(v), V: u}.Canonical()]--
			}
			// In-lists of low vertices must only duplicate edges whose
			// other side is also low; high neighbors there are the
			// low-high edges counted via the *other* vertex's out list —
			// so count in-entries only when the neighbor is high AND the
			// neighbor (being high) has no out entry for it.
			for _, u := range c.In(V(v)) {
				if c.IsHigh(u) {
					counts[Edge{U: u, V: V(v)}.Canonical()]--
				}
			}
		}
		err = c.H2H().Edges(func(u, v V) bool {
			counts[Edge{U: u, V: v}.Canonical()]--
			return true
		})
		if err != nil {
			return false
		}
		for _, cnt := range counts {
			if cnt != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// randomSimpleEdges builds a deterministic random simple graph.
func randomSimpleEdges(seed int64, n, m int) []Edge {
	// Small deterministic LCG avoids importing math/rand here.
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*2862933555777941757 + 3037000493
		return int((state >> 33) % uint64(mod))
	}
	seen := map[Edge]bool{}
	var edges []Edge
	for i := 0; i < m; i++ {
		u, v := V(next(n)), V(next(n))
		if u == v {
			continue
		}
		e := Edge{U: u, V: v}
		if seen[e.Canonical()] {
			continue
		}
		seen[e.Canonical()] = true
		edges = append(edges, e)
	}
	return edges
}

func TestMemH2HStore(t *testing.T) {
	s := &MemH2H{}
	if err := s.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(3, 4); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	var got []Edge
	if err := s.Edges(func(u, v V) bool {
		got = append(got, Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (Edge{U: 1, V: 2}) {
		t.Fatalf("edges = %v", got)
	}
	// Early stop.
	calls := 0
	if err := s.Edges(func(u, v V) bool { calls++; return false }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("early stop made %d calls", calls)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCSRMemBytesAndSpans(t *testing.T) {
	edges := []Edge{{U: 0, V: 1}, {U: 1, V: 2}}
	c := buildTestCSR(t, 3, edges, math.Inf(1))
	if c.MemBytes() <= 0 {
		t.Fatal("MemBytes not positive")
	}
	off, n := c.OutSpan(1)
	if n != 1 {
		t.Fatalf("out span of 1: off=%d n=%d", off, n)
	}
	_, n = c.InSpan(1)
	if n != 1 {
		t.Fatalf("in span of 1: n=%d", n)
	}
	if c.ColLen() != 4 {
		t.Fatalf("col len = %d, want 4 (two edges, both directions)", c.ColLen())
	}
}

// slabbedGraph lends its edges in slabs of the given size and counts the
// slabs it lends and the releases it gets back.
type slabbedGraph struct {
	*MemGraph
	slab           int
	lent, released int
}

func (g *slabbedGraph) Chunks(yield func(edges []Edge, release func()) bool) error {
	for off := 0; off < len(g.E); off += g.slab {
		g.lent++
		if !yield(g.E[off:min(off+g.slab, len(g.E))], func() { g.released++ }) {
			return nil
		}
	}
	return nil
}

// edgesOnly hides any chunk lending of the wrapped stream, so consumers take
// the copy-slab path of visitSlabs.
type edgesOnly struct{ EdgeStream }

// countingStream counts the edges a consumer actually pulled.
type countingStream struct {
	EdgeStream
	yielded int
}

func (s *countingStream) Edges(yield func(u, v V) bool) error {
	return s.EdgeStream.Edges(func(u, v V) bool {
		s.yielded++
		return yield(u, v)
	})
}

// TestBuildCSRSegmentsFollowStreamOrder pins the CSR bit for bit, not just
// as an edge set: every out-segment lists its neighbours in stream order,
// every in-segment likewise, E_h2h is spilled in stream order, and the
// result is the same whether the stream lends slabs (of any size, so slab
// boundaries fall mid-segment) or is copied through the fallback slab.
func TestBuildCSRSegmentsFollowStreamOrder(t *testing.T) {
	const n = 900
	edges := randomSimpleEdges(11, n, 3*slabEdges)
	sources := map[string]func() EdgeStream{
		"mem":       func() EdgeStream { return NewMemGraph(n, edges) },
		"slab=1000": func() EdgeStream { return &slabbedGraph{MemGraph: NewMemGraph(n, edges), slab: 1000} },
		"slab=1":    func() EdgeStream { return &slabbedGraph{MemGraph: NewMemGraph(n, edges), slab: 1} },
		"copy":      func() EdgeStream { return edgesOnly{NewMemGraph(n, edges)} },
	}
	for _, tau := range []float64{math.Inf(1), 3, 1.2} {
		for name, open := range sources {
			c, err := BuildCSR(open(), tau, nil)
			if err != nil {
				t.Fatal(err)
			}
			outs, ins := make([][]V, n), make([][]V, n)
			var h2h []Edge
			for _, e := range edges {
				uh, vh := c.IsHigh(e.U), c.IsHigh(e.V)
				if uh && vh {
					h2h = append(h2h, e)
					continue
				}
				if !uh {
					outs[e.U] = append(outs[e.U], e.V)
				}
				if !vh {
					ins[e.V] = append(ins[e.V], e.U)
				}
			}
			var off int64
			for v := 0; v < n; v++ {
				if got, _ := c.OutSpan(V(v)); got != off {
					t.Fatalf("tau=%v %s v=%d: out offset %d, want %d", tau, name, v, got, off)
				}
				if !equalV(c.Out(V(v)), outs[v]) || !equalV(c.In(V(v)), ins[v]) {
					t.Fatalf("tau=%v %s v=%d: segments out of stream order", tau, name, v)
				}
				off += int64(len(outs[v]) + len(ins[v]))
			}
			var got []Edge
			c.H2H().Edges(func(u, v V) bool { got = append(got, Edge{u, v}); return true })
			if len(got) != len(h2h) {
				t.Fatalf("tau=%v %s: %d h2h edges, want %d", tau, name, len(got), len(h2h))
			}
			for i := range got {
				if got[i] != h2h[i] {
					t.Fatalf("tau=%v %s: h2h order differs at %d", tau, name, i)
				}
			}
			if c.M() != int64(len(edges)) || c.ColLen() != off {
				t.Fatalf("tau=%v %s: m=%d col=%d, want %d/%d", tau, name, c.M(), c.ColLen(), len(edges), off)
			}
		}
	}
}

func equalV(a, b []V) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDegreesLendingMatchesCopying: the degree count is a pure function of
// the edge multiset, whichever way visitSlabs reads the stream.
func TestDegreesLendingMatchesCopying(t *testing.T) {
	const n = 700
	edges := randomSimpleEdges(5, n, 2*slabEdges+17)
	want, wm, err := Degrees(NewMemGraph(n, edges))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []EdgeStream{
		&slabbedGraph{MemGraph: NewMemGraph(n, edges), slab: 333},
		edgesOnly{NewMemGraph(n, edges)},
	} {
		for _, count := range []func(EdgeStream) ([]int32, int64, error){Degrees, DegreesGrow} {
			got, m, err := count(src)
			if err != nil {
				t.Fatal(err)
			}
			if m != wm || !equalInt32(got, want) {
				t.Fatalf("%T: degrees differ from the single-slab count", src)
			}
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDegreesGrowDiscoversDomain(t *testing.T) {
	g := NewMemGraph(3, []Edge{{U: 0, V: 9}, {U: 9, V: 2}, {U: 5, V: 0}})
	if _, _, err := Degrees(g); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("strict count got %v, want ErrVertexRange", err)
	}
	deg, m, err := DegreesGrow(g)
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 || !equalInt32(deg, []int32{2, 0, 1, 0, 0, 1, 0, 0, 0, 2}) {
		t.Fatalf("m=%d deg=%v", m, deg)
	}
}

// TestDegreeOverflowGuard lowers MaxDegree and replays a multigraph past it:
// both degree contracts and the CSR build's count must fail with
// ErrDegreeOverflow instead of wrapping.
func TestDegreeOverflowGuard(t *testing.T) {
	defer func(old int32) { MaxDegree = old }(MaxDegree)
	MaxDegree = 3
	over := NewMemGraph(3, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 1}, {U: 0, V: 2}})
	ok := NewMemGraph(3, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 1}})
	for name, count := range map[string]func(EdgeStream) ([]int32, int64, error){"strict": Degrees, "grow": DegreesGrow} {
		if _, _, err := count(over); !errors.Is(err, ErrDegreeOverflow) {
			t.Fatalf("%s: got %v, want ErrDegreeOverflow", name, err)
		}
		if _, _, err := count(ok); err != nil {
			t.Fatalf("%s: degree exactly at the limit rejected: %v", name, err)
		}
		// A self-loop contributes 2, so it may not start past MaxDegree-1.
		loop := NewMemGraph(1, []Edge{{U: 0, V: 0}, {U: 0, V: 0}})
		if _, _, err := count(loop); !errors.Is(err, ErrDegreeOverflow) {
			t.Fatalf("%s: self-loop overflow got %v, want ErrDegreeOverflow", name, err)
		}
	}
	// Vertex 0 has out-degree 2 and in-degree 2: neither count passes the
	// limit, their sum does.
	sum := NewMemGraph(3, []Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 0}, {U: 2, V: 0}})
	if _, err := BuildCSR(sum, 10, nil); !errors.Is(err, ErrDegreeOverflow) {
		t.Fatalf("BuildCSR total degree got %v, want ErrDegreeOverflow", err)
	}
	if _, err := BuildCSR(over, 10, nil); !errors.Is(err, ErrDegreeOverflow) {
		t.Fatalf("BuildCSR out-degree got %v, want ErrDegreeOverflow", err)
	}
	if _, err := BuildCSR(ok, 10, nil); err != nil {
		t.Fatalf("BuildCSR at the limit rejected: %v", err)
	}
}

// TestDegreesStopsScanAtFirstError: a bad edge stops the pass promptly, not
// after streaming the whole input. The copy path reads at most one slab
// past the error; the lending path requests no slab after the failing one
// and releases every slab it was lent.
func TestDegreesStopsScanAtFirstError(t *testing.T) {
	const total = 200_000
	edges := make([]Edge, total)
	edges[0] = Edge{U: 0, V: 1 << 30}
	for i := 1; i < total; i++ {
		edges[i] = Edge{U: V(i % 64), V: V((i + 1) % 64)}
	}
	src := &countingStream{EdgeStream: NewMemGraph(64, edges)}
	if _, _, err := Degrees(src); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("got %v, want ErrVertexRange", err)
	}
	if src.yielded > slabEdges {
		t.Fatalf("copy path scanned %d of %d edges after the error", src.yielded, total)
	}
	lend := &slabbedGraph{MemGraph: NewMemGraph(64, edges), slab: 1024}
	if _, err := BuildCSR(lend, 10, nil); !errors.Is(err, ErrVertexRange) {
		t.Fatalf("got %v, want ErrVertexRange", err)
	}
	if lend.lent != 1 || lend.released != 1 {
		t.Fatalf("lent %d slabs, released %d; want 1/1", lend.lent, lend.released)
	}
}

// TestVisitSlabsReleasesEverySlab pins the lending discipline: each lent
// slab is released exactly once whether the visitor runs to the end or
// stops early, and no slab is requested after a stop.
func TestVisitSlabsReleasesEverySlab(t *testing.T) {
	g := &slabbedGraph{MemGraph: NewMemGraph(10, randomSimpleEdges(3, 10, 40)), slab: 4}
	var seen int
	if err := visitSlabs(g, func(edges []Edge) bool { seen += len(edges); return true }); err != nil {
		t.Fatal(err)
	}
	if seen != len(g.E) || g.released != g.lent {
		t.Fatalf("full visit saw %d of %d edges, released %d of %d slabs", seen, len(g.E), g.released, g.lent)
	}
	g.lent, g.released = 0, 0
	calls := 0
	if err := visitSlabs(g, func([]Edge) bool { calls++; return calls < 2 }); err != nil {
		t.Fatal(err)
	}
	if calls != 2 || g.lent != 2 || g.released != 2 {
		t.Fatalf("stopped visit: %d calls, lent %d, released %d; want 2/2/2", calls, g.lent, g.released)
	}
	// The copy path hands out slabs of slabEdges and a short tail.
	var sizes []int
	big := edgesOnly{NewMemGraph(64, make([]Edge, slabEdges+5))}
	if err := visitSlabs(big, func(edges []Edge) bool { sizes = append(sizes, len(edges)); return true }); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != slabEdges || sizes[1] != 5 {
		t.Fatalf("copy slabs %v, want [%d 5]", sizes, slabEdges)
	}
}
