// Package restream implements multi-pass (re-streaming) edge partitioning
// in the style of Nishimura & Ugander (KDD 2013), the streaming-model
// variation the paper's related work singles out (§6): the edge stream is
// replayed several times, and each pass re-places every edge using the
// complete placement state frozen from the previous pass. Later passes see
// global information a single-pass partitioner never has, closing part of
// the quality gap to in-memory partitioning at the cost of extra passes.
package restream

import (
	"fmt"

	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/shard"
	"hep/internal/stream"
)

// Restream is the multi-pass HDRF partitioner.
type Restream struct {
	part.SinkHolder

	// Passes is the total number of streaming passes (default 3; 1 is
	// plain HDRF).
	Passes int
	// Lambda is the HDRF balance weight (default 1.1).
	Lambda float64
	// Alpha is the balance bound α ≥ 1 (default 1.05).
	Alpha float64
	// Workers > 1 runs every streaming pass through the parallel sharded
	// engine (the degree pre-pass stays single-goroutine) —
	// re-streaming parallelizes naturally, since later passes score
	// affinity against a frozen prior state that every worker can read
	// without coordination. Workers ≤ 1 keeps the sequential passes.
	Workers int
	// BatchEdges pins the engine's fan-out batch size (0 = stream-scaled
	// ceiling with adaptive sizing on).
	BatchEdges int
	// Obs is the observability hook (nil = disabled): the degree pass and
	// every streaming pass record phase spans, and the parallel engine folds
	// hot-path counters into it.
	Obs *obs.Obs
}

// Name implements part.Algorithm.
func (r *Restream) Name() string { return fmt.Sprintf("ReHDRF-%d", r.passes()) }

func (r *Restream) passes() int {
	if r.Passes <= 0 {
		return 3
	}
	return r.Passes
}

// Partition implements part.Algorithm.
func (r *Restream) Partition(src graph.EdgeStream, k int) (*part.Result, error) {
	lambda := r.Lambda
	if lambda == 0 {
		lambda = stream.DefaultLambda
	}
	alpha := r.Alpha
	if alpha == 0 {
		alpha = 1.05
	}
	opts := shard.Options{Workers: r.Workers, BatchEdges: r.BatchEdges, Obs: r.Obs.Counters(), Hub: r.Obs}
	parallel := r.Workers > 1

	// Exact-degree pre-pass, single-goroutine at every Workers.
	sp := r.Obs.Span("degree-pass")
	deg, m, err := graph.Degrees(src)
	if err != nil {
		return nil, err
	}
	sp.Edges(m).End()
	// Per-pass denominator: the progress reporter scopes percentages to the
	// current root phase, so every pass (degree or streaming) runs 0→100%
	// over the same m edges instead of sharing one cumulative total.
	r.Obs.SetTotalEdges(m)
	n := src.NumVertices()

	// Pass 1: plain streamed HDRF with exact degrees.
	res := part.NewResult(n, k)
	if r.passes() == 1 {
		res.Sink = r.Sink
	}
	sp = r.Obs.Span("stream-pass-1")
	if parallel {
		err = stream.RunHDRFParallel(src, res, deg, lambda, alpha, m, opts)
	} else {
		// The parallel engine folds its own counters; the plain sequential
		// run needs the one batch-boundary fold here.
		err = stream.RunHDRF(src, res, deg, lambda, alpha, m)
		r.Obs.Counters().Add(0, obs.CtrEdgesStreamed, m)
		res.SampleQuality(r.Obs)
	}
	if err != nil {
		return nil, err
	}
	sp.Edges(m).End()

	// Passes 2..P: re-place each edge against the frozen previous state.
	for pass := 1; pass < r.passes(); pass++ {
		prev := res
		next := part.NewResult(n, k)
		if pass == r.passes()-1 {
			next.Sink = r.Sink // only the final pass emits assignments
		}
		sp = r.Obs.Span(fmt.Sprintf("restream-pass-%d", pass+1))
		if parallel {
			err = stream.RunHDRFWithStateParallel(src, next, prev, deg, lambda, alpha, m, opts)
		} else {
			err = stream.RunHDRFWithState(src, next, prev, deg, lambda, alpha, m)
			r.Obs.Counters().Add(0, obs.CtrEdgesStreamed, m)
			next.SampleQuality(r.Obs)
		}
		if err != nil {
			return nil, err
		}
		sp.Edges(m).End()
		res = next
	}
	return res, nil
}
