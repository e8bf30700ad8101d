package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"hep"
	"hep/internal/core"
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/ooc"
	"hep/internal/part"
	"hep/internal/refine"
	"hep/internal/shard"
	"hep/internal/stream"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct{ name, unit string }

// layerMetrics is every per-layer metric, in report order. A layer the
// workload does not run reports 0.
var layerMetrics = []layerMetric{
	{"ooc.ingest_ns_per_edge", "ns/edge"},
	{"ooc.degree_ns_per_edge", "ns/edge"},
	{"ooc.degree_ns_per_edge.w1", "ns/edge"},
	{"memmodel.fit_s", "s"},
	{"core.build_ns_per_edge", "ns/edge"},
	{"core.build_ns_per_edge.w1", "ns/edge"},
	{"core.build_alloc_bytes_per_edge", "B/edge"},
	{"core.nepp_ns_per_edge", "ns/edge"},
	{"core.nepp_edges", "edges"},
	{"ooc.spill_bytes_per_edge", "B/edge"},
	{"ooc.spill_read_ns_per_edge", "ns/edge"},
	{"stream.score_ns_per_edge", "ns/edge"},
	{"stream.score_ns_per_edge.w1", "ns/edge"},
	{"stream.score_edges", "edges"},
	{"ooc.expand_ns_per_edge", "ns/edge"},
	{"ooc.expand_ns_per_edge.w1", "ns/edge"},
	{"ooc.regions", "count"},
	{"ooc.fallback_edges", "edges"},
	{"refine.ns_per_edge", "ns/edge"},
	{"refine.ns_per_edge.w1", "ns/edge"},
	{"refine.rf_gain", "replicas/vertex"},
	{"refine.gain_recomputes", "count"},
	{"refine.useful_ratio", "ratio"},
	{"shard.cas_retries", "count"},
	{"shard.reorder_stall_ms", "ms"},
	{"trace.coverage", "ratio"},
}

// tracer times one layer call at a time and keeps the per-layer metrics.
// Calls at the run's worker count W feed the shared obs hub (the shard
// counters) and add to layerS, the time the pipeline itself spends;
// the .w1 calls are measured beside it.
type tracer struct {
	m      map[string]float64
	layerS float64
}

// ingestFold keeps the ingest scan's reads from being optimised away.
var ingestFold graph.V

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// perEdge converts seconds to ns per edge (0 for an empty layer).
func perEdge(s float64, edges int64) float64 {
	if edges == 0 {
		return 0
	}
	return s * 1e9 / float64(edges)
}

func traceRun(w *workload, spec childSpec) (runResult, error) {
	t := &tracer{m: make(map[string]float64, len(layerMetrics))}
	for _, lm := range layerMetrics {
		t.m[lm.name] = 0
	}
	workers := shard.Options{}.Resolve()
	hub := hep.NewObs(workers)
	src, closeSrc, err := w.open(spec.In)
	if err != nil {
		return runResult{}, err
	}
	defer closeSrc()
	m := spec.M

	// Ingest: one full lending scan through the workload's reader that
	// reads every edge once, so a zero-copy reader pays its page faults.
	cs, ok := graph.AsChunks(src)
	if !ok {
		return runResult{}, errors.New("trace: reader does not lend chunks")
	}
	var seen int64
	s, err := timed(func() error {
		return cs.Chunks(func(edges []graph.Edge, release func()) bool {
			for _, e := range edges {
				ingestFold ^= e.U ^ e.V
			}
			seen += int64(len(edges))
			release()
			return true
		})
	})
	if err != nil {
		return runResult{}, err
	}
	if seen != m {
		return runResult{}, fmt.Errorf("trace: ingest scanned %d edges, want %d", seen, m)
	}
	t.m["ooc.ingest_ns_per_edge"] = perEdge(s, m)

	// Degree pass at W and at one worker.
	degW, err := timed(func() error {
		_, _, err := ooc.DegreePassParallel(src, shard.Options{Workers: workers})
		return err
	})
	if err != nil {
		return runResult{}, err
	}
	deg1, err := timed(func() error { _, _, err := ooc.DegreePass(src); return err })
	if err != nil {
		return runResult{}, err
	}
	t.m["ooc.degree_ns_per_edge"] = perEdge(degW, m)
	t.m["ooc.degree_ns_per_edge.w1"] = perEdge(deg1, m)

	var cfg hep.Config
	s, err = timed(func() error {
		var err error
		cfg, err = hep.FitBudget(src, w.config(spec.Budget))
		return err
	})
	if err != nil {
		return runResult{}, err
	}
	t.m["memmodel.fit_s"] = s

	if w.algo == hep.AlgoBuffered {
		err = t.buffered(src, cfg, m, workers, hub, degW, deg1)
	} else {
		err = t.hep(src, cfg, m, workers, hub)
	}
	if err != nil {
		return runResult{}, err
	}
	c := hub.Counters()
	t.m["shard.cas_retries"] = float64(c.Total(obs.CtrCASRetries))
	t.m["shard.reorder_stall_ms"] = float64(c.HistRecord(obs.HistStallNs).Sum) / 1e6
	return runResult{Layers: t.m, LayerS: t.layerS, Tau: cfg.Tau, Buffer: cfg.Buffer}, nil
}

// buffered times ooc.Buffered at W and at one worker; region expansion is
// the partition time minus the degree pass timed alone.
func (t *tracer) buffered(src hep.EdgeStream, cfg hep.Config, m int64, workers int, hub *hep.Obs, degW, deg1 float64) error {
	run := func(workers int, hub *hep.Obs) (float64, *ooc.Buffered, error) {
		b := &ooc.Buffered{BufferEdges: cfg.Buffer, Workers: workers, Obs: hub}
		s, err := timed(func() error { _, err := b.Partition(src, cfg.K); return err })
		return s, b, err
	}
	sW, b, err := run(workers, hub)
	if err != nil {
		return err
	}
	s1, _, err := run(1, nil)
	if err != nil {
		return err
	}
	t.layerS += sW
	t.m["ooc.expand_ns_per_edge"] = perEdge(sW-degW, m)
	t.m["ooc.expand_ns_per_edge.w1"] = perEdge(s1-deg1, m)
	t.m["ooc.regions"] = float64(b.LastStats.Regions)
	t.m["ooc.fallback_edges"] = float64(b.LastStats.FallbackEdges)
	return nil
}

// hep times HEP's layers in pipeline order: the pruned CSR build with the
// E_h2h spill, NE++, informed HDRF over the spilled edges and, when the
// workload refines, the boundary-move rounds on the captured assignment.
func (t *tracer) hep(src hep.EdgeStream, cfg hep.Config, m int64, workers int, hub *hep.Obs) error {
	build := func(opts shard.Options) (*graph.CSR, *ooc.VarintH2H, float64, error) {
		store, err := ooc.NewVarintH2H("")
		if err != nil {
			return nil, nil, 0, err
		}
		var csr *graph.CSR
		s, err := timed(func() error {
			var err error
			csr, err = core.BuildCSRSharded(src, cfg.Tau, store, opts)
			return err
		})
		if err != nil {
			store.Close()
			return nil, nil, 0, err
		}
		return csr, store, s, nil
	}
	_, store1, s1, err := build(shard.Options{Workers: 1})
	if err != nil {
		return err
	}
	store1.Close()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	csr, store, sW, err := build(shard.Options{Workers: workers, Obs: hub.Counters()})
	if err != nil {
		return err
	}
	defer store.Close()
	runtime.ReadMemStats(&after)
	t.layerS += sW
	t.m["core.build_ns_per_edge"] = perEdge(sW, m)
	t.m["core.build_ns_per_edge.w1"] = perEdge(s1, m)
	t.m["core.build_alloc_bytes_per_edge"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(m)

	h2h := h2hStream{store: store, n: csr.N()}
	h2hM := store.Len()
	if h2hM > 0 {
		t.m["ooc.spill_bytes_per_edge"] = float64(store.Bytes()) / float64(h2hM)
		s, err := timed(func() error { return store.Edges(func(u, v graph.V) bool { return true }) })
		if err != nil {
			return err
		}
		t.m["ooc.spill_read_ns_per_edge"] = perEdge(s, h2hM)
	}

	// NE++ with the assignment captured, so the informed-streaming state can
	// be rebuilt for the one-worker scorer and the refinement input kept.
	res := part.NewResult(csr.N(), cfg.K)
	capt := &refine.Capture{Edges: make([]graph.Edge, 0, m), Parts: make([]int32, 0, m)}
	res.Sink = capt
	s, err := timed(func() error { core.NewNEPP(csr, cfg.K, res, nil).Run(); return nil })
	if err != nil {
		return err
	}
	neppM := res.M
	t.layerS += s
	t.m["core.nepp_ns_per_edge"] = perEdge(s, neppM)
	t.m["core.nepp_edges"] = float64(neppM)

	if h2hM > 0 {
		deg := csr.Degrees()
		res1 := replay(csr.N(), cfg.K, capt.Edges[:neppM], capt.Parts[:neppM])
		s, err := timed(func() error {
			return stream.RunHDRFParallel(h2h, res, deg, stream.DefaultLambda, 1, csr.M(),
				shard.Options{Workers: workers, Obs: hub.Counters(), Hub: hub})
		})
		if err != nil {
			return err
		}
		s1, err := timed(func() error { return stream.RunHDRF(h2h, res1, deg, stream.DefaultLambda, 1, csr.M()) })
		if err != nil {
			return err
		}
		t.layerS += s
		t.m["stream.score_ns_per_edge"] = perEdge(s, h2hM)
		t.m["stream.score_ns_per_edge.w1"] = perEdge(s1, h2hM)
		t.m["stream.score_edges"] = float64(h2hM)
	}
	if res.M != m {
		return fmt.Errorf("trace: HEP layers placed %d edges, want %d", res.M, m)
	}
	if cfg.Refine == "" {
		return nil
	}

	parts1 := append([]int32(nil), capt.Parts...)
	res1 := replay(res.N, res.K, capt.Edges, parts1)
	rfBefore := res.ReplicationFactor()
	var st refine.Stats
	s, err = timed(func() error {
		var err error
		st, err = refine.Run(res, capt.Edges, capt.Parts, refine.Options{Mode: cfg.Refine, Obs: hub})
		return err
	})
	if err != nil {
		return err
	}
	s1, err = timed(func() error {
		_, err := refine.Run(res1, capt.Edges, parts1, refine.Options{Mode: cfg.Refine, Workers: 1})
		return err
	})
	if err != nil {
		return err
	}
	t.layerS += s
	t.m["refine.ns_per_edge"] = perEdge(s, m)
	t.m["refine.ns_per_edge.w1"] = perEdge(s1, m)
	t.m["refine.rf_gain"] = rfBefore - res.ReplicationFactor()
	t.m["refine.gain_recomputes"] = float64(st.GainRecomputes)
	if st.GainRecomputes > 0 {
		t.m["refine.useful_ratio"] = float64(st.Applied) / float64(st.GainRecomputes)
	}
	return nil
}

// replay rebuilds a result from an assignment: the same replica table and
// loads the run that produced the assignment left behind.
func replay(n, k int, edges []graph.Edge, parts []int32) *part.Result {
	res := part.NewResult(n, k)
	for i, e := range edges {
		res.Assign(e.U, e.V, int(parts[i]))
	}
	return res
}

// h2hStream adapts the spill store to graph.EdgeStream, as HEP does for its
// informed-streaming phase.
type h2hStream struct {
	store graph.H2HStore
	n     int
}

func (s h2hStream) NumVertices() int { return s.n }

func (s h2hStream) NumEdges() int64 { return s.store.Len() }

func (s h2hStream) Edges(yield func(u, v graph.V) bool) error { return s.store.Edges(yield) }
