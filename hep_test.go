package hep

import (
	"math"
	"path/filepath"
	"slices"
	"testing"

	"hep/internal/core"
	"hep/internal/graph"
	"hep/internal/part"
)

func TestPartitionEveryAlgorithm(t *testing.T) {
	g := Dataset("LJ", 0.05)
	parallel := map[string]bool{}
	for _, name := range ParallelAlgorithms() {
		parallel[name] = true
	}
	for _, name := range Algorithms() {
		workers := 1
		if parallel[name] {
			workers = 2
		} else {
			// No parallel path: Workers > 1 must be a clear error, never a
			// silent sequential fallback.
			if _, err := Partition(g, Config{Algorithm: name, K: 8, Tau: 10, Seed: 1, Workers: 2}); err == nil {
				t.Errorf("%s: Workers=2 accepted despite having no parallel path", name)
			}
		}
		res, err := Partition(g, Config{Algorithm: name, K: 8, Tau: 10, Seed: 1, Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.M != g.NumEdges() {
			t.Errorf("%s: assigned %d of %d edges", name, res.M, g.NumEdges())
		}
		if rf := res.ReplicationFactor(); rf < 1 {
			t.Errorf("%s: RF %v < 1", name, rf)
		}
	}
}

func TestWorkersValidation(t *testing.T) {
	g := Dataset("LJ", 0.03)
	// Negative Workers rejected everywhere a Config enters the API.
	if _, err := New(Config{Algorithm: AlgoHDRF, K: 4, Workers: -1}); err == nil {
		t.Error("New accepted Workers=-1")
	}
	if _, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 4, Workers: -1}); err == nil {
		t.Error("Partition accepted Workers=-1")
	}
	if _, err := FitBudget(g, Config{Algorithm: AlgoHEP, K: 4, Workers: -2, MemBudget: 1 << 40}); err == nil {
		t.Error("FitBudget accepted Workers=-2")
	}
	// ADWISE is the canonical order-sensitive algorithm with no parallel
	// path: Workers > 1 is a clear error, Workers ≤ 1 runs.
	if _, err := Partition(g, Config{Algorithm: AlgoADWISE, K: 4, Workers: 2}); err == nil {
		t.Error("ADWISE accepted Workers=2")
	}
	if _, err := Partition(g, Config{Algorithm: AlgoADWISE, K: 4, Workers: 1}); err != nil {
		t.Errorf("ADWISE rejected Workers=1: %v", err)
	}
	// Parallel-capable algorithms take Workers > 1 and still assign every
	// edge exactly once.
	for _, name := range ParallelAlgorithms() {
		res, err := Partition(g, Config{Algorithm: name, K: 4, Tau: 10, Seed: 1, Workers: 3})
		if err != nil {
			t.Fatalf("%s Workers=3: %v", name, err)
		}
		if res.M != g.NumEdges() {
			t.Errorf("%s Workers=3: assigned %d of %d edges", name, res.M, g.NumEdges())
		}
	}
}

// TestLambdaValidation pins the λ contract at every Config entry point: a
// negative, NaN or infinite Lambda is an error (never a panic), and 0
// still selects the default.
func TestLambdaValidation(t *testing.T) {
	g := Dataset("LJ", 0.03)
	for _, lambda := range []float64{-1, -1e-300, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, name := range []string{AlgoHEP, AlgoHDRF, AlgoRestream, AlgoBuffered, AlgoADWISE} {
			cfg := Config{Algorithm: name, K: 4, Tau: 10, Lambda: lambda}
			if _, err := New(cfg); err == nil {
				t.Errorf("%s: New accepted Lambda=%g", name, lambda)
			}
			if _, err := Partition(g, cfg); err == nil {
				t.Errorf("%s: Partition accepted Lambda=%g", name, lambda)
			}
			if _, err := FitBudget(g, cfg); err == nil {
				t.Errorf("%s: FitBudget accepted Lambda=%g", name, lambda)
			}
		}
		cfg := Config{Algorithm: AlgoHEP, K: 4, Lambda: lambda, MemBudget: 1 << 40}
		if _, err := PartitionStream(g, cfg); err == nil {
			t.Errorf("PartitionStream accepted Lambda=%g", lambda)
		}
	}
	for _, lambda := range []float64{0, 1.1, 1e3} {
		res, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 4, Workers: 1, Lambda: lambda})
		if err != nil {
			t.Fatalf("Lambda=%g rejected: %v", lambda, err)
		}
		if res.M != g.NumEdges() {
			t.Fatalf("Lambda=%g: assigned %d of %d edges", lambda, res.M, g.NumEdges())
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	g := NewGraph(0, []Edge{{U: 0, V: 1}})
	if _, err := Partition(g, Config{Algorithm: "bogus", K: 2}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Partition(g, Config{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestNewGraphInference(t *testing.T) {
	g := NewGraph(0, []Edge{{U: 2, V: 7}})
	if g.NumVertices() != 8 {
		t.Fatalf("inferred n = %d", g.NumVertices())
	}
	g2 := NewGraph(20, []Edge{{U: 2, V: 7}})
	if g2.NumVertices() != 20 {
		t.Fatalf("explicit n = %d", g2.NumVertices())
	}
}

func TestSinkThroughConfig(t *testing.T) {
	g := Dataset("LJ", 0.03)
	var count int64
	sink := sinkFunc(func(u, v uint32, p int) { count++ })
	res, err := Partition(g, Config{Algorithm: AlgoHEP, K: 4, Tau: 10, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if count != res.M {
		t.Fatalf("sink saw %d assignments, result has %d", count, res.M)
	}
}

type sinkFunc func(u, v uint32, p int)

func (f sinkFunc) Assign(u, v uint32, p int) { f(u, v, p) }

func TestBinaryFileRoundTripThroughFacade(t *testing.T) {
	g := Dataset("LJ", 0.03)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteBinaryFile(path, g.E); err != nil {
		t.Fatal(err)
	}
	edges, err := ReadBinaryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != len(g.E) {
		t.Fatalf("%d edges, want %d", len(edges), len(g.E))
	}
	stream, err := OpenBinaryFile(path, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	// Partition straight from the file stream (multi-pass).
	res, err := Partition(stream, Config{Algorithm: AlgoHEP, K: 8, Tau: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("file-stream partitioning assigned %d of %d edges", res.M, g.NumEdges())
	}
}

func TestChooseTauFacade(t *testing.T) {
	g := Dataset("OK", 0.05)
	cands := []float64{100, 10, 1}
	tau, ok, err := ChooseTau(g, 32, cands, 1<<40)
	if err != nil || !ok || tau != 100 {
		t.Fatalf("tau=%v ok=%v err=%v", tau, ok, err)
	}
	full, err := EstimateMemory(g, 32, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := EstimateMemory(g, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pruned >= full {
		t.Fatalf("pruned estimate %d not below full %d", pruned, full)
	}
	// Partitioning with the chosen τ must actually respect quality order:
	// a feasibility smoke run.
	res, err := Partition(g, Config{Algorithm: AlgoHEP, K: 32, Tau: tau})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicationFactor() < 1 {
		t.Fatal("bad RF")
	}
}

func TestSummarizeFacade(t *testing.T) {
	g := Dataset("LJ", 0.03)
	res, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize("hdrf", res)
	if s.Algorithm != "hdrf" || s.K != 4 || s.ReplicationFactor < 1 {
		t.Fatalf("summary %+v", s)
	}
}

func TestDatasetNames(t *testing.T) {
	names := DatasetNames()
	if len(names) != 10 {
		t.Fatalf("datasets = %v", names)
	}
}

func TestSinkThroughConfigBuffered(t *testing.T) {
	g := Dataset("LJ", 0.03)
	var count int64
	sink := sinkFunc(func(u, v uint32, p int) { count++ })
	res, err := Partition(g, Config{Algorithm: AlgoBuffered, K: 4, Buffer: 1024, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if count != res.M {
		t.Fatalf("sink saw %d assignments, result has %d", count, res.M)
	}
}

func TestPartitionFile(t *testing.T) {
	g := Dataset("OK", 0.1)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteBinaryFile(path, g.E); err != nil {
		t.Fatal(err)
	}

	// Default algorithm (HEP) with a generous budget: τ is chosen, E_h2h
	// spills to the compressed run store, every edge is assigned.
	res, err := PartitionFile(path, Config{K: 8, MemBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() || res.N != g.NumVertices() {
		t.Fatalf("n=%d m=%d, want n=%d m=%d", res.N, res.M, g.NumVertices(), g.NumEdges())
	}

	// Out-of-core algorithm with a buffer budget.
	res, err = PartitionFile(path, Config{Algorithm: AlgoBuffered, K: 8, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("buffered assigned %d of %d edges", res.M, g.NumEdges())
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}

	// Errors: bad k, impossible budgets, budget on an algorithm that would
	// silently ignore it, missing file.
	if _, err := PartitionFile(path, Config{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := PartitionFile(path, Config{Algorithm: AlgoHDRF, K: 4, MemBudget: 1 << 30}); err == nil {
		t.Fatal("budget on a budget-less algorithm accepted")
	}
	if _, err := PartitionFile(path, Config{Algorithm: AlgoBuffered, K: 4, MemBudget: 10}); err == nil {
		t.Fatal("sub-edge buffer budget accepted")
	}
	if _, err := PartitionFile(filepath.Join(t.TempDir(), "missing.bin"), Config{K: 4}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestFitBudget(t *testing.T) {
	g := Dataset("OK", 0.05)

	// HEP: the largest fitting τ wins, overriding an explicit Tau.
	cfg, err := FitBudget(g, Config{Algorithm: AlgoHEP, K: 32, Tau: 1, MemBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tau != 100 || cfg.MemBudget != 0 {
		t.Fatalf("resolved cfg: tau=%v budget=%d", cfg.Tau, cfg.MemBudget)
	}

	// Buffered: an explicit Buffer larger than the budget allows is
	// clamped — the budget is the contract.
	cfg, err = FitBudget(g, Config{Algorithm: AlgoBuffered, K: 32, Buffer: 1 << 30, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 << 20 / 112; cfg.Buffer > want {
		t.Fatalf("buffer %d not clamped to budget (≤ %d)", cfg.Buffer, want)
	}
	// A smaller explicit Buffer already fits and is kept.
	cfg, err = FitBudget(g, Config{Algorithm: AlgoBuffered, K: 32, Buffer: 10, MemBudget: 1 << 20})
	if err != nil || cfg.Buffer != 10 {
		t.Fatalf("small explicit buffer not kept: %d (%v)", cfg.Buffer, err)
	}
	// Concurrent expanders charge per-worker batch state: the same budget
	// yields a smaller buffer at Workers=4 than at Workers=1.
	c1, err := FitBudget(g, Config{Algorithm: AlgoBuffered, K: 32, Workers: 1, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	c4, err := FitBudget(g, Config{Algorithm: AlgoBuffered, K: 32, Workers: 4, MemBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if c4.Buffer >= c1.Buffer {
		t.Fatalf("W=4 buffer %d not smaller than W=1 buffer %d under the same budget", c4.Buffer, c1.Buffer)
	}

	// Algorithms that would silently ignore the budget are rejected.
	if _, err := FitBudget(g, Config{Algorithm: AlgoDBH, K: 32, MemBudget: 1 << 20}); err == nil {
		t.Fatal("budget accepted for a budget-less algorithm")
	}
	// Zero budget is a no-op.
	cfg, err = FitBudget(g, Config{Algorithm: AlgoDBH, K: 32})
	if err != nil || cfg.Algorithm != AlgoDBH {
		t.Fatalf("zero budget not a no-op: %+v (%v)", cfg, err)
	}

	// Partition honors MemBudget too — never silently ignored.
	if _, err := Partition(g, Config{Algorithm: AlgoHDRF, K: 4, MemBudget: 1 << 20}); err == nil {
		t.Fatal("Partition accepted a budget for a budget-less algorithm")
	}
	res, err := Partition(g, Config{Algorithm: AlgoHEP, K: 8, MemBudget: 1 << 40})
	if err != nil || res.M != g.NumEdges() {
		t.Fatalf("budgeted Partition: %v", err)
	}
}

func TestOpenChunkedFacade(t *testing.T) {
	g := Dataset("LJ", 0.03)
	path := filepath.Join(t.TempDir(), "g.bin")
	if err := WriteBinaryFile(path, g.E); err != nil {
		t.Fatal(err)
	}
	src, err := OpenChunked(path, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumVertices() != g.NumVertices() || src.NumEdges() != g.NumEdges() {
		t.Fatalf("n=%d m=%d", src.NumVertices(), src.NumEdges())
	}
	res, err := Partition(src, Config{Algorithm: AlgoBuffered, K: 8, Buffer: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.M != g.NumEdges() {
		t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
	}
}

// TestHEPCSRBitIdenticalAcrossWorkers: the CSR a HEP partitioner built by
// New constructs does not depend on Config.Workers. NE++ is deterministic
// over a given CSR, so the in-memory phase's assignment sequence pins the
// column array and size fields it consumed, and the spill store pins the
// E_h2h order. Both must match the Workers: 1 run exactly at Workers 2 and
// 4 (the streaming phase after them is the part that may differ).
func TestHEPCSRBitIdenticalAcrossWorkers(t *testing.T) {
	g := Dataset("TW", 0.05)
	run := func(w int) ([]part.TaggedEdge, []graph.Edge) {
		var col part.Collect
		a, err := New(Config{Algorithm: AlgoHEP, K: 16, Tau: 10, Workers: w, Sink: &col})
		if err != nil {
			t.Fatal(err)
		}
		store := &graph.MemH2H{}
		a.(*core.HEP).H2HStore = store
		res, err := a.Partition(g, 16)
		if err != nil {
			t.Fatal(err)
		}
		if res.M != g.NumEdges() {
			t.Fatalf("W=%d: assigned %d of %d edges", w, res.M, g.NumEdges())
		}
		var h2h []graph.Edge
		store.Edges(func(u, v graph.V) bool { h2h = append(h2h, graph.Edge{U: u, V: v}); return true })
		return col.Edges[:res.M-store.Len()], h2h
	}
	nepp1, h2h1 := run(1)
	if len(h2h1) == 0 {
		t.Fatal("no E_h2h edges: the test would not pin the spill order")
	}
	for _, w := range []int{2, 4} {
		nepp, h2h := run(w)
		if !slices.Equal(nepp, nepp1) {
			t.Fatalf("W=%d: NE++ assignments differ from W=1 (the CSR differs)", w)
		}
		if !slices.Equal(h2h, h2h1) {
			t.Fatalf("W=%d: E_h2h spill order differs from W=1", w)
		}
	}
}
