package memmodel

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/pstate"
)

func TestEstimateComponents(t *testing.T) {
	// 4 vertices, 3 edges path: degrees 1,2,2,1, mean 1.5.
	deg := []int32{1, 2, 2, 1}
	f := Estimate(deg, 3, 4, math.Inf(1))
	if f.ColumnArray != 6*BytesPerID {
		t.Fatalf("column = %d", f.ColumnArray)
	}
	if f.IndexArrays != 2*4*BytesPerID || f.SizeFields != 2*4*BytesPerID || f.Heap != 2*4*BytesPerID {
		t.Fatal("fixed components wrong")
	}
	if f.ReplicaTable != pstate.MaxTableBytes(4, 4) {
		t.Fatalf("replica table = %d", f.ReplicaTable)
	}
	if f.AuxBitsets != int64(3*4/8) {
		t.Fatalf("aux bitsets = %d", f.AuxBitsets)
	}
	want := f.ColumnArray + f.IndexArrays + f.SizeFields + f.ReplicaTable + f.AuxBitsets + f.Heap
	if f.Total() != want {
		t.Fatal("total mismatch")
	}
}

// TestReplicaTableScalesWithMaskWords pins the k-dependence of the new
// accounting: one dense word per vertex up to k=64, one extra word per
// additional 64 partitions.
func TestReplicaTableScalesWithMaskWords(t *testing.T) {
	deg := []int32{1, 2, 2, 1}
	f32 := Estimate(deg, 3, 32, math.Inf(1))
	f64 := Estimate(deg, 3, 64, math.Inf(1))
	f256 := Estimate(deg, 3, 256, math.Inf(1))
	if f32.ReplicaTable-32*8 != f64.ReplicaTable-64*8 {
		t.Fatalf("k=32 and k=64 mask bytes differ: %d vs %d", f32.ReplicaTable, f64.ReplicaTable)
	}
	if f256.ReplicaTable-256*8 != 4*(f64.ReplicaTable-64*8) {
		t.Fatalf("k=256 mask bytes %d not 4x the k=64 word", f256.ReplicaTable)
	}
}

func TestEstimatePruningShrinksColumn(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 6, 1)
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	full := Estimate(deg, m, 32, math.Inf(1))
	pruned := Estimate(deg, m, 32, 1)
	if pruned.ColumnArray >= full.ColumnArray {
		t.Fatalf("pruned column %d not below full %d", pruned.ColumnArray, full.ColumnArray)
	}
	if full.H2HEdges != 0 {
		t.Fatal("no pruning should mean no h2h")
	}
	if pruned.H2HEdges == 0 {
		t.Fatal("tau=1 should estimate h2h edges on a power-law graph")
	}
}

func TestTauSweepExactMatchesCSR(t *testing.T) {
	g := gen.BarabasiAlbert(1500, 5, 2)
	taus := []float64{100, 10, 2, 1}
	points, err := TauSweep(g, 16, taus)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(taus) {
		t.Fatalf("points = %d", len(points))
	}
	// Descending τ order.
	for i := 1; i < len(points); i++ {
		if points[i].Tau > points[i-1].Tau {
			t.Fatal("sweep not sorted descending")
		}
		// Lower τ ⇒ more pruning ⇒ smaller column, more h2h.
		if points[i].ExactColmn > points[i-1].ExactColmn {
			t.Fatal("column entries not monotone")
		}
		if points[i].ExactH2H < points[i-1].ExactH2H {
			t.Fatal("h2h not monotone")
		}
	}
	// Cross-check each point against a real CSR build.
	for _, p := range points {
		csr, err := graph.BuildCSR(g, p.Tau, nil)
		if err != nil {
			t.Fatal(err)
		}
		if csr.ColLen() != p.ExactColmn {
			t.Errorf("tau=%v: sweep column %d, CSR %d", p.Tau, p.ExactColmn, csr.ColLen())
		}
		if csr.H2H().Len() != p.ExactH2H {
			t.Errorf("tau=%v: sweep h2h %d, CSR %d", p.Tau, p.ExactH2H, csr.H2H().Len())
		}
	}
}

func TestChooseTau(t *testing.T) {
	g := gen.BarabasiAlbert(2000, 8, 3)
	taus := []float64{100, 10, 4, 1}
	// A huge budget must pick the largest τ.
	tau, ok, err := ChooseTau(g, 32, taus, 1<<40)
	if err != nil || !ok || tau != 100 {
		t.Fatalf("huge budget: tau=%v ok=%v err=%v", tau, ok, err)
	}
	// A tiny budget must fail.
	_, ok, err = ChooseTau(g, 32, taus, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("10-byte budget satisfied")
	}
	// A budget between the τ=1 and τ=100 footprints must pick some
	// intermediate τ, and the chosen footprint must actually fit.
	points, err := TauSweep(g, 32, taus)
	if err != nil {
		t.Fatal(err)
	}
	low := points[len(points)-1] // smallest τ = smallest footprint
	budget := low.Footprint.Total() - low.Footprint.ColumnArray + low.ExactColmn*BytesPerID + 1
	tau, ok, err = ChooseTau(g, 32, taus, budget)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("budget %d should admit tau=1", budget)
	}
	if tau > 100 {
		t.Fatalf("chose tau=%v", tau)
	}
}

func TestEstimateH2HCapped(t *testing.T) {
	if est := estimateH2H(2000, 10); est != 10 {
		t.Fatalf("estimate %d not capped at m", est)
	}
	if estimateH2H(0, 100) != 0 {
		t.Fatal("empty high set should give 0")
	}
}

// refSweep evaluates each candidate on its own: it tests every vertex and
// every edge with graph.HighDegree and sums the high degrees as floats.
func refSweep(t *testing.T, g graph.EdgeStream, k int, taus []float64) []SweepPoint {
	t.Helper()
	deg, m, err := graph.Degrees(g)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(deg))
	mean := graph.MeanDegree(len(deg), m)
	sorted := append([]float64(nil), taus...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	points := make([]SweepPoint, len(sorted))
	for i, tau := range sorted {
		var col, high int64
		var highSum float64
		for _, d := range deg {
			if graph.HighDegree(d, tau, mean) {
				high++
				highSum += float64(d)
			} else {
				col += int64(d)
			}
		}
		var est int64
		if m > 0 && high > 0 {
			est = min(int64(highSum*highSum/(4*float64(m))), m)
		}
		var h2h int64
		if err := g.Edges(func(u, v graph.V) bool {
			if graph.HighDegree(deg[u], tau, mean) && graph.HighDegree(deg[v], tau, mean) {
				h2h++
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		points[i] = SweepPoint{
			Tau: tau,
			Footprint: Footprint{
				Tau: tau, ColumnArray: col * BytesPerID,
				IndexArrays: 2 * n * BytesPerID, SizeFields: 2 * n * BytesPerID,
				ReplicaTable: pstate.MaxTableBytes(len(deg), k), AuxBitsets: 3 * n / 8,
				Heap: 2 * n * BytesPerID, H2HEdges: est,
			},
			ExactH2H:   h2h,
			ExactColmn: col,
		}
	}
	return points
}

// refChoose selects over sweep points with the exact column array: the
// first point, in descending τ, whose footprint fits.
func refChoose(points []SweepPoint, budget int64) (float64, bool) {
	for _, p := range points {
		f := p.Footprint
		f.ColumnArray = p.ExactColmn * BytesPerID
		if f.Total() <= budget {
			return p.Tau, true
		}
	}
	return 0, false
}

// checkAgainstRef asserts that TauSweep is bit-identical to refSweep and
// that ChooseTau picks what refChoose picks at every candidate's footprint
// boundary, at 10 bytes and at 1 TiB.
func checkAgainstRef(t *testing.T, g graph.EdgeStream, k int, taus []float64) {
	t.Helper()
	want := refSweep(t, g, k, taus)
	got, err := TauSweep(g, k, taus)
	if err != nil {
		t.Fatal(err)
	}
	// %v prints floats exactly and NaN equal to NaN.
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("sweep differs from the per-candidate reference:\n got %+v\nwant %+v", got, want)
	}
	budgets := []int64{10, 1 << 40}
	for _, p := range want {
		f := p.Footprint
		f.ColumnArray = p.ExactColmn * BytesPerID
		budgets = append(budgets, f.Total(), f.Total()-1)
	}
	for _, b := range budgets {
		tau, ok, err := ChooseTau(g, k, taus, b)
		if err != nil {
			t.Fatal(err)
		}
		wantTau, wantOK := refChoose(want, b)
		if ok != wantOK || math.Float64bits(tau) != math.Float64bits(wantTau) {
			t.Errorf("budget %d: ChooseTau = (%v, %v), reference (%v, %v)", b, tau, ok, wantTau, wantOK)
		}
	}
}

// TestChooseTauMatchesSweepSelection pins that ChooseTau, with no E_h2h
// pass, selects what the exact sweep selects, on three generator families.
func TestChooseTauMatchesSweepSelection(t *testing.T) {
	graphs := map[string]*graph.MemGraph{
		"ba":        gen.BarabasiAlbert(3000, 6, 4),
		"powerlaw":  gen.PowerLawConfig(3000, 2.1, 2, 400, 5),
		"community": gen.CommunityPowerLaw(3000, 12, 5, 0.2, 6),
	}
	taus := []float64{100, 50, 20, 10, 5, 2, 1}
	for name, g := range graphs {
		for _, k := range []int{32, 128} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				checkAgainstRef(t, g, k, taus)
			})
		}
	}
}

// TestTauSweepOddCandidates covers candidate lists where the rank order
// needs care: NaN (never high, sorted last), ±Inf, zero of both signs,
// negative τ, duplicates, unsorted input, a vertex high at the largest
// candidate, and a graph with no edges.
func TestTauSweepOddCandidates(t *testing.T) {
	odd := []float64{math.NaN(), 3, math.Inf(1), -1, 0, 3, math.Inf(-1), 0.5, math.Copysign(0, -1), math.NaN()}
	checkAgainstRef(t, gen.BarabasiAlbert(800, 4, 7), 32, odd)
	checkAgainstRef(t, graph.NewMemGraph(5, nil), 32, odd)
	checkAgainstRef(t, gen.Star(50), 4, []float64{math.NaN()})
	checkAgainstRef(t, gen.Star(50), 4, []float64{1, 2, math.NaN()}) // the hub is high at the largest τ
	checkAgainstRef(t, gen.Star(50), 4, nil)
}

// countingStream counts the passes started over a plain EdgeStream.
type countingStream struct {
	graph.EdgeStream
	passes int
}

func (s *countingStream) Edges(yield func(u, v graph.V) bool) error {
	s.passes++
	return s.EdgeStream.Edges(yield)
}

// countingChunks counts the passes started over a ChunkStream through
// either of its iterators.
type countingChunks struct {
	graph.ChunkStream
	passes int
}

func (s *countingChunks) Edges(yield func(u, v graph.V) bool) error {
	s.passes++
	return s.ChunkStream.Edges(yield)
}

func (s *countingChunks) Chunks(yield func(edges []graph.Edge, release func()) bool) error {
	s.passes++
	return s.ChunkStream.Chunks(yield)
}

// TestChooseTauOnePass pins §4.4's cost claim: ChooseTau reads the edges
// once (the degree count), TauSweep twice (plus the exact E_h2h count).
func TestChooseTauOnePass(t *testing.T) {
	g := gen.BarabasiAlbert(1000, 5, 8)
	taus := []float64{100, 10, 1}
	plain := &countingStream{EdgeStream: g}
	chunked := &countingChunks{ChunkStream: g}
	if _, ok := graph.AsChunks(plain); ok {
		t.Fatal("plain wrapper lends chunks")
	}
	for _, c := range []struct {
		name   string
		src    graph.EdgeStream
		passes *int
	}{{"plain", plain, &plain.passes}, {"chunked", chunked, &chunked.passes}} {
		if _, _, err := ChooseTau(c.src, 32, taus, 1<<20); err != nil {
			t.Fatal(err)
		}
		if *c.passes != 1 {
			t.Errorf("%s: ChooseTau started %d passes, want 1", c.name, *c.passes)
		}
		*c.passes = 0
		if _, err := TauSweep(c.src, 32, taus); err != nil {
			t.Fatal(err)
		}
		if *c.passes != 2 {
			t.Errorf("%s: TauSweep started %d passes, want 2", c.name, *c.passes)
		}
	}
}

// twoFaced yields first on its first pass and second on every later one,
// like a file rewritten between passes.
type twoFaced struct {
	n             int
	first, second []graph.Edge
	passes        int
}

func (s *twoFaced) NumVertices() int { return s.n }
func (s *twoFaced) NumEdges() int64  { return int64(len(s.first)) }
func (s *twoFaced) Edges(yield func(u, v graph.V) bool) error {
	edges := s.first
	if s.passes > 0 {
		edges = s.second
	}
	s.passes++
	for _, e := range edges {
		if !yield(e.U, e.V) {
			return nil
		}
	}
	return nil
}

// TestTauSweepVertexRangeOnSecondPass: an id past the degree pass's range
// on the E_h2h pass is an error, not an index panic.
func TestTauSweepVertexRangeOnSecondPass(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}
	grown := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 9}, {U: 2, V: 3}}
	_, err := TauSweep(&twoFaced{n: 4, first: edges, second: grown}, 4, []float64{2, 1})
	if !errors.Is(err, graph.ErrVertexRange) {
		t.Fatalf("got %v, want ErrVertexRange", err)
	}
	// ChooseTau reads the stream once, so the second face never shows.
	if _, _, err := ChooseTau(&twoFaced{n: 4, first: edges, second: grown}, 4, []float64{2, 1}, 1<<20); err != nil {
		t.Fatal(err)
	}
}
