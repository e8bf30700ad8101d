// Package stream implements the streaming edge partitioners the paper
// evaluates — HDRF, Greedy, DBH, Grid, ADWISE and Random — plus the
// informed stateful streaming pass HEP runs over E_h2h (paper §3.3).
//
// All partitioners here look at one edge (or a small window) at a time and
// keep only per-partition state: edge counts and the vertex-major replica
// table. Greedy and ADWISE iterate the candidate partitions, those already
// hosting an endpoint, handed over as a k-bit mask by pstate.Table.
//
// The HDRF scorer (bestHDRF) does not score every candidate partition.
// For an edge (u,v) it splits the partitions into four replica
// classes — hosting both endpoints, u only, v only, neither — and the
// replica term is constant inside a class. With λ ≥ 0 the balance term can
// only fall as load rises, so a class's best member is its lowest-index
// minimum-load admissible partition, found with integer compares over the
// ⌈k/64⌉ mask words of u and v. For the "neither" class that member is
// dominated by (or equal to) the least-loaded partition overall, Loads.ArgMin.
// Scoring those at most four winners with the full scan's exact float
// expression and ranking them by (score desc, load asc, index asc) returns
// the full scan's argmax bit for bit, ties included.
package stream

import (
	"math"
	"math/bits"

	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/pstate"
)

// hdrfEpsilon avoids division by zero in the balance term (Petroni et al.).
const hdrfEpsilon = 1e-9

// DefaultLambda is the HDRF balance weight recommended by the authors and
// used in the paper's evaluation (Appendix A: λ = 1.1).
const DefaultLambda = 1.1

// capFor returns the per-partition capacity bound ⌈α·m/k⌉ used by the
// balance constraint of §2. α must be ≥ 1 for the bound to be feasible.
//
// m ≤ 0 means the edge count is unknown (graph.EdgeStream's NumEdges() == 0
// contract — e.g. a discovery-skipped out-of-core stream) and the capacity
// is unbounded: a literal ⌈α·0/k⌉ = 0 would make every partition "full", so
// the scorers would return -1 for every edge and HDRF/Greedy/ADWISE would
// silently degrade to balance-only ArgMin placement. With no hard bound the
// λ balance term still keeps loads even, which is the reference HDRF
// behavior (it has no capacity constraint at all).
func capFor(alpha float64, m int64, k int) int64 {
	if m <= 0 {
		return math.MaxInt64
	}
	if alpha < 1 {
		alpha = 1
	}
	return int64(math.Ceil(alpha * float64(m) / float64(k)))
}

// RepView is the read surface of a replica table the HDRF scorer needs: mask
// word wi (partitions 64·wi .. 64·wi+63) of a vertex. *pstate.Table serves
// the sequential runners and, frozen, concurrent re-streaming workers;
// *shard.AtomicTable serves the parallel workers with atomic loads.
type RepView interface {
	Word(v graph.V, wi int) uint64
}

// bestHDRF returns the admissible partition (load below capacity) with the
// highest HDRF score for (u,v), or -1 when every partition is at capacity:
//
//	θ(u) = d(u)/(d(u)+d(v))
//	g(v,p) = 1 + (1 − θ(v))   if v is replicated on p, else 0
//	C_REP  = g(u,p) + g(v,p)
//	C_BAL  = λ · (maxLoad − load_p) / (ε + maxLoad − minLoad)
//
// Replica affinity comes from reps, which may be a frozen prior state
// (re-streaming); loads and capacity come from the result being built (for
// a parallel worker, its bounded-staleness view). Only the class winners
// are scored (see the package comment). The result is exactly that of a
// full ascending scan keeping the first strictly better score, or an equal
// score at a strictly lower load — provided λ ≥ 0, which hep.New enforces.
//
//hep:noalloc
func bestHDRF(reps RepView, loads *pstate.Loads, u, v graph.V, du, dv int32, lambda float64, capacity int64) int {
	counts := loads.Counts()
	// Class winners and their loads: both endpoints (pb, lb), u only
	// (pu, lu), v only (pv, lv). A winner's load starts at capacity, so
	// only partitions below it are admitted.
	pb, pu, pv := -1, -1, -1
	lb, lu, lv := capacity, capacity, capacity
	for wi := 0; wi<<6 < len(counts); wi++ {
		wu, wv := reps.Word(u, wi), reps.Word(v, wi)
		base := wi << 6
		pb, lb = classMin(wu&wv, base, counts, pb, lb)
		pu, lu = classMin(wu&^wv, base, counts, pu, lu)
		pv, lv = classMin(wv&^wu, base, counts, pv, lv)
	}
	maxLoad, minLoad := loads.Max(), loads.Min()
	win := [4]int{pb, pu, pv, -1} // in rep order; the last is the balance anchor
	if minLoad < capacity {
		win[3] = loads.ArgMin()
	}
	sum := float64(du) + float64(dv)
	gu := 1 + (1 - float64(du)/sum)
	gv := 1 + (1 - float64(dv)/sum)
	rep := [4]float64{gu + gv, gu, gv, 0}
	denom := hdrfEpsilon + float64(maxLoad-minLoad)
	best, bestScore, bestLoad := -1, math.Inf(-1), int64(0)
	for c, p := range win {
		if p < 0 {
			continue
		}
		l := counts[p]
		s := rep[c] + lambda*float64(maxLoad-l)/denom
		if s > bestScore || s == bestScore && (l < bestLoad || l == bestLoad && p < best) {
			best, bestScore, bestLoad = p, s, l
		}
	}
	return best
}

// classMin folds mask word w (partitions base..base+63) into a class
// winner p with load low: a partition replaces it only at a strictly lower
// load, so among equal loads the lowest index stays.
//
//hep:noalloc
func classMin(w uint64, base int, counts []int64, p int, low int64) (int, int64) {
	for w != 0 {
		q := base + bits.TrailingZeros64(w)
		w &= w - 1
		if c := counts[q]; c < low {
			p, low = q, c
		}
	}
	return p, low
}

// BestHDRF exposes the HDRF placement rule to other informed-streaming
// phases (the out-of-core buffered partitioner's fallback): the admissible
// partition with the highest score for (u,v) given exact degrees, or -1 when
// every partition is at capacity.
func BestHDRF(res *part.Result, u, v graph.V, du, dv int32, lambda float64, capacity int64) int {
	return bestHDRF(res.Reps, res.Loads, u, v, du, dv, lambda, capacity)
}

// RunHDRF streams the edges of src into res using HDRF scoring with the
// provided exact degree array. It is HEP's informed streaming phase: res
// already carries the replica table produced by NE++, so every placement
// decision is informed by the in-memory phase (paper §3.3), overcoming the
// "uninformed assignment problem". totalM is the number of edges of the
// complete graph, which defines the balance capacity α·|E|/k.
func RunHDRF(src graph.EdgeStream, res *part.Result, deg []int32, lambda, alpha float64, totalM int64) error {
	capacity := capFor(alpha, totalM, res.K)
	return src.Edges(func(u, v graph.V) bool {
		p := bestHDRF(res.Reps, res.Loads, u, v, deg[u], deg[v], lambda, capacity)
		if p < 0 {
			// All partitions at capacity: place on the least loaded to
			// preserve the exactly-once guarantee (only reachable when
			// α·|E|/k rounds below the residual load).
			p = res.Loads.ArgMin()
		}
		res.Assign(u, v, p)
		return true
	})
}

// RunHDRFWithState streams src into res scoring replica affinity against a
// *frozen* prior result (re-streaming: later passes re-place every edge
// with full knowledge of the previous pass). Loads and capacity come from
// the result being built; replica affinity comes from state.
func RunHDRFWithState(src graph.EdgeStream, res, state *part.Result, deg []int32, lambda, alpha float64, totalM int64) error {
	capacity := capFor(alpha, totalM, res.K)
	return src.Edges(func(u, v graph.V) bool {
		best := bestHDRF(state.Reps, res.Loads, u, v, deg[u], deg[v], lambda, capacity)
		if best < 0 {
			best = res.Loads.ArgMin()
		}
		res.Assign(u, v, best)
		return true
	})
}

// hash32 is a deterministic avalanche hash (Murmur3 finalizer) used by the
// hashing partitioners (DBH, Grid, Random).
func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}
