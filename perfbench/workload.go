package main

import (
	"fmt"
	"math"
	"os"

	"hep"
	"hep/internal/gen"
	"hep/internal/graph"
	"hep/internal/ooc"
	"hep/internal/shard"
)

// workload is one benchmark input plus the partitioner configuration it is
// run under. The graph comes from the generator family and parameters of a
// gen.Datasets stand-in; only the seed differs, so --seed 0 reproduces the
// registry graph exactly.
type workload struct {
	name    string
	dataset string  // gen.Datasets stand-in whose generator builds the graph
	scale   float64 // stand-in scale factor
	regSeed int64   // the stand-in's registry seed (graph seed = regSeed + --seed)
	build   func(scale float64, seed int64) *graph.MemGraph

	algo   string
	k      int
	tau    float64
	refine string
	mmap   bool // read through hep.OpenMmap instead of hep.OpenChunked
	// budget derives Config.MemBudget from the generated file before timing
	// starts (nil: no budget).
	budget func(path string, m int64, workers int) (int64, error)
}

// scaled mirrors the vertex-count scaling of the gen.Datasets stand-ins.
func scaled(base int, scale float64) int {
	return max(int(float64(base)*scale), 8)
}

var workloads = []*workload{
	{
		name: "hep-inmem", dataset: "TW", scale: 4, regSeed: 47,
		build: func(s float64, seed int64) *graph.MemGraph {
			return gen.CommunityPowerLaw(scaled(45_000, s), 150, 14, 0.35, seed)
		},
		algo: hep.AlgoHEP, k: 32, tau: 10,
	},
	{
		name: "hep-lowmem", dataset: "FR", scale: 8, regSeed: 48,
		build: func(s float64, seed int64) *graph.MemGraph {
			return gen.PowerLawConfig(scaled(50_000, s), 2.2, 4, 2_000, seed)
		},
		algo: hep.AlgoHEP, k: 128,
		budget: lowmemBudget,
	},
	{
		name: "buffered-ooc", dataset: "OK", scale: 4, regSeed: 43,
		build: func(s float64, seed int64) *graph.MemGraph {
			return gen.CommunityPowerLaw(scaled(24_000, s), 120, 24, 0.2, seed)
		},
		algo: hep.AlgoBuffered, k: 32, mmap: true,
		budget: bufferedBudget,
	},
	{
		name: "hep-refine", dataset: "LJ", scale: 8, regSeed: 42,
		build: func(s float64, seed int64) *graph.MemGraph {
			return gen.CommunityPowerLaw(scaled(40_000, s), 250, 9, 0.15, seed)
		},
		algo: hep.AlgoHEP, k: 32, tau: 10, refine: hep.RefineMoves,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// config is the hep.Config every run of the workload uses. Workers and
// RefineWorkers stay 0 (GOMAXPROCS), the default a hep-partition user gets.
func (w *workload) config(budget int64) hep.Config {
	return hep.Config{Algorithm: w.algo, K: w.k, Tau: w.tau, Refine: w.refine, MemBudget: budget}
}

// open opens the input through the same reader hep-partition uses for the
// workload's algorithm: Buffered discovers ids in its own degree pass, every
// other algorithm pays the discovery scan up front.
func (w *workload) open(path string) (hep.EdgeStream, func(), error) {
	discoverN := 0
	if w.algo == hep.AlgoBuffered {
		discoverN = -1
	}
	if w.mmap {
		ms, err := hep.OpenMmap(path, discoverN)
		if err != nil {
			return nil, nil, err
		}
		return ms, func() { ms.Close() }, nil
	}
	src, err := hep.OpenChunked(path, discoverN, 0)
	if err != nil {
		return nil, nil, err
	}
	return src, func() {}, nil
}

// maxLoadBound is the largest partition load the run's algorithm may
// produce: HEP places at most ⌈m/k⌉ edges per partition (α = 1), Buffered
// and the refinement guard allow ⌈1.05·m/k⌉, plus the parallel engine's
// bounded-staleness overshoot (see staleSlack).
func (w *workload) maxLoadBound(m int64, workers int) int64 {
	return int64(math.Ceil(w.alpha()*float64(m)/float64(w.k))) + staleSlack(workers)
}

// alpha is the balance factor the workload's algorithm guarantees.
func (w *workload) alpha() float64 {
	if w.algo == hep.AlgoBuffered || w.refine != "" {
		return 1.05
	}
	return 1
}

// staleSlack is the overshoot the check tolerates above the α bound. The
// sequential paths hold the bound up to rounding. With W ≥ 2 workers each
// worker scores against load bounds stale by its current batch, and the
// adaptive batch sizer shrinks batches to shard.MinBatchEdges as a partition
// nears capacity, so at worst W such batches land on one full partition.
func staleSlack(workers int) int64 {
	if workers <= 1 {
		return 2
	}
	return 2 + int64(workers)*shard.MinBatchEdges
}

// lowmemBudget sits midway between the §4.2 footprints for τ=1 and τ=2, so
// FitBudget's sweep settles on τ=1: the paper's memory-constrained setting.
func lowmemBudget(path string, _ int64, _ int) (int64, error) {
	src, err := hep.OpenChunked(path, 0, 0)
	if err != nil {
		return 0, err
	}
	lo, err := hep.EstimateMemory(src, 128, 1)
	if err != nil {
		return 0, err
	}
	hi, err := hep.EstimateMemory(src, 128, 2)
	if err != nil {
		return 0, err
	}
	return lo + (hi-lo)/2, nil
}

// bufferedFills is the number of buffer fills the buffered-ooc budget is
// sized for: FitBudget turns the budget into a buffer of ⌈m/8⌉ edges.
const bufferedFills = 8

func bufferedBudget(_ string, m int64, workers int) (int64, error) {
	workers = min(workers, 32) // FitBudget never charges more expanders than k = 32
	per := int64(ooc.BytesPerBufferedEdge + (workers-1)*ooc.BytesPerExpanderEdge)
	edges := (m + bufferedFills - 1) / bufferedFills
	return edges * per, nil
}

// generate writes the workload's graph for the given seed offset to path
// and returns its vertex and edge counts.
func (w *workload) generate(path string, scale float64, seed int64) (n int, m int64, err error) {
	g := w.build(w.scale*scale, w.regSeed+seed)
	if err := hep.WriteBinaryFile(path, g.E); err != nil {
		return 0, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return g.NumVertices(), fi.Size() / 8, nil
}
