package stream

import (
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/shard"
)

// HDRF is the High-Degree Replicated First streaming partitioner (Petroni
// et al., CIKM 2015), the strongest stateful streaming baseline in the
// paper's evaluation and the scoring function of HEP's streaming phase.
//
// The standalone algorithm observes degrees incrementally ("partial
// degrees") as the stream goes by, exactly like the reference
// implementation; set ExactDegrees to give it a free first pass over the
// stream (used in ablations).
type HDRF struct {
	part.SinkHolder

	// Lambda is the balance weight λ (paper Appendix A uses 1.1).
	Lambda float64
	// Alpha is the balance bound α ≥ 1 of §2 (default 1.05).
	Alpha float64
	// ExactDegrees switches from streamed partial degrees to a pre-pass
	// computing exact degrees.
	ExactDegrees bool
	// Workers > 1 places edges through the parallel sharded streaming
	// engine (internal/shard). Parallel placement cannot observe partial
	// degrees in stream order, so it always takes the exact-degree
	// pre-pass. Workers ≤ 1 keeps the exact sequential path.
	Workers int
	// BatchEdges overrides the engine's fan-out batch size (0 = default).
	BatchEdges int
	// Obs is the observability hook (nil = disabled): the degree pass and
	// the streaming pass record phase spans, and the parallel engine folds
	// hot-path counters into it.
	Obs *obs.Obs
}

// Name implements part.Algorithm.
func (h *HDRF) Name() string { return "HDRF" }

func (h *HDRF) params() (lambda, alpha float64) {
	lambda, alpha = h.Lambda, h.Alpha
	if lambda == 0 {
		lambda = DefaultLambda
	}
	if alpha == 0 {
		alpha = 1.05
	}
	return lambda, alpha
}

// Partition implements part.Algorithm.
func (h *HDRF) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	lambda, alpha := h.params()
	n := src.NumVertices()
	res := part.NewResult(n, k)
	res.Sink = h.Sink
	capacity := capFor(alpha, src.NumEdges(), k)

	if h.Workers > 1 {
		opts := shard.Options{Workers: h.Workers, BatchEdges: h.BatchEdges, Obs: h.Obs.Counters(), Hub: h.Obs}
		// The exact-degree pre-pass is single-goroutine at every Workers.
		sp := h.Obs.Span("degree-pass")
		deg, m, err := graph.Degrees(src)
		if err != nil {
			return nil, err
		}
		sp.Edges(m).End()
		// Per-pass denominator: the progress reporter scopes percentages to
		// the current root phase, so each pass runs 0→100% over m edges.
		h.Obs.SetTotalEdges(m)
		sp = h.Obs.Span("stream")
		if err := RunHDRFParallel(src, res, deg, lambda, alpha, m, opts); err != nil {
			return nil, err
		}
		sp.Edges(m).End()
		return res, nil
	}

	var deg []int32
	if h.ExactDegrees {
		var m int64
		var err error
		sp := h.Obs.Span("degree-pass")
		deg, m, err = graph.Degrees(src)
		if err != nil {
			return nil, err
		}
		sp.Edges(m).End()
		// The pre-pass counted the exact m, so a count-less stream
		// (NumEdges() == 0) still gets the real α·m/k bound here — the
		// same capacity the Workers > 1 path enforces.
		capacity = capFor(alpha, m, k)
	} else {
		deg = make([]int32, n)
	}

	sp := h.Obs.Span("stream")
	err := src.Edges(func(u, v graph.V) bool {
		if !h.ExactDegrees {
			deg[u]++
			deg[v]++
		}
		p := bestHDRF(res.Reps, res.Loads, u, v, deg[u], deg[v], lambda, capacity)
		if p < 0 {
			p = res.Loads.ArgMin()
		}
		res.Assign(u, v, p)
		return true
	})
	if err != nil {
		return nil, err
	}
	// The sequential loop stays counter-free per edge; fold the totals once
	// and take one end-of-stream quality sample.
	h.Obs.Counters().Add(0, obs.CtrEdgesStreamed, res.M)
	res.SampleQuality(h.Obs)
	sp.Edges(res.M).End()
	return res, nil
}
