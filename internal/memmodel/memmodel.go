// Package memmodel implements the analytical memory model of paper §4.2 and
// the τ pre-computation of §4.4: given a degree distribution, it reports
// the bytes HEP's data structures occupy for any threshold factor τ, and
// picks the largest τ (best replication factor) that fits a memory budget.
package memmodel

import (
	"fmt"
	"math"
	"sort"

	"hep/internal/graph"
	"hep/internal/pstate"
)

// BytesPerID is b_id: vertex ids are 32-bit for graphs under 2^32 vertices
// (paper §4.2).
const BytesPerID = 4

// Footprint itemizes the §4.2 model for one τ.
type Footprint struct {
	Tau float64
	// ColumnArray is Σ_{v ∈ V_l} d(v) · b_id — the dominant structure.
	ColumnArray int64
	// IndexArrays is 2·|V|·b_id (separate in/out index arrays).
	IndexArrays int64
	// SizeFields is 2·|V|·b_id (valid-entry counts per in/out list).
	SizeFields int64
	// ReplicaTable is the vertex-major replica table: 8·|V|·⌈k/64⌉ mask
	// bytes plus 8·k of per-partition counts (pstate.MaxTableBytes). The
	// model charges the worst case — every overflow page allocated — so a
	// τ chosen under a budget can never overshoot it, even though
	// power-law runs typically stay near the 8·|V| dense words.
	ReplicaTable int64
	// AuxBitsets is 3·|V|/8: NE++'s core set C plus the current and
	// pre-seeded next secondary sets (the per-partition secondary bitsets
	// of the partition-major layout are gone).
	AuxBitsets int64
	// Heap is 2·|V|·b_id (min-heap + position lookup).
	Heap int64
	// H2HEdges counts the edges spilled out of memory at this τ.
	H2HEdges int64
}

// Total returns the §4.2 sum:
// Σ_{v∈V_l} d(v)·b_id + 6·|V|·b_id + 8·|V|·⌈k/64⌉ + 8·k + 3·|V|/8 bytes.
func (f Footprint) Total() int64 {
	return f.ColumnArray + f.IndexArrays + f.SizeFields + f.ReplicaTable + f.AuxBitsets + f.Heap
}

// Estimate evaluates the model for one τ given the degree array and k.
func Estimate(deg []int32, m int64, k int, tau float64) Footprint {
	return footprints(deg, m, k, []float64{tau}, nil)[0]
}

// footprints evaluates the model for every candidate in taus, sorted as
// descending returns them, in one pass over deg. A vertex's rank is the
// first candidate index at which it is high-degree. High-ness is monotone in
// τ, so a vertex is high at every candidate from its rank on, and prefix
// sums of the per-rank degree sums give each candidate's column array and
// high-degree sum. When ranks is non-nil it receives every vertex's rank.
func footprints(deg []int32, m int64, k int, taus []float64, ranks []int32) []Footprint {
	n := len(deg)
	mean := graph.MeanDegree(n, m)
	ordered := orderedLen(taus)
	rankSum := make([]int64, ordered+1)
	var total int64
	for v, d := range deg {
		r := rank(d, taus[:ordered], mean)
		rankSum[r] += int64(d)
		total += int64(d)
		if ranks != nil {
			ranks[v] = int32(r)
		}
	}
	fps := make([]Footprint, len(taus))
	for i, high := range atOrBelow(rankSum, len(taus)) {
		fps[i] = Footprint{
			Tau:          taus[i],
			ColumnArray:  (total - high) * BytesPerID,
			IndexArrays:  2 * int64(n) * BytesPerID,
			SizeFields:   2 * int64(n) * BytesPerID,
			ReplicaTable: pstate.MaxTableBytes(n, k),
			AuxBitsets:   3 * int64(n) / 8,
			Heap:         2 * int64(n) * BytesPerID,
			H2HEdges:     estimateH2H(high, m),
		}
	}
	return fps
}

// rank returns the first index of taus (descending, no NaN) at which a
// vertex of degree d is high-degree, or len(taus) when it is high at none.
// It scans from the smallest τ, so a low-degree vertex costs one test.
func rank(d int32, taus []float64, mean float64) int {
	r := len(taus)
	for r > 0 && graph.HighDegree(d, taus[r-1], mean) {
		r--
	}
	return r
}

// atOrBelow returns, for each of c candidates, the sum of perRank over the
// ranks at or below its index, which covers exactly the vertices (or edges)
// high at that candidate. perRank has one entry per NaN-free candidate plus
// one for "never high"; a NaN candidate past them makes nothing high.
func atOrBelow(perRank []int64, c int) []int64 {
	sums := make([]int64, c)
	var sum int64
	for i := range min(c, len(perRank)-1) {
		sum += perRank[i]
		sums[i] = sum
	}
	return sums
}

// descending returns a copy of taus sorted descending, NaNs last.
func descending(taus []float64) []float64 {
	sorted := append([]float64(nil), taus...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	return sorted
}

// orderedLen returns the length of the NaN-free prefix of a descending
// candidate list. Ranks range over that prefix only.
func orderedLen(taus []float64) int {
	n := len(taus)
	for n > 0 && math.IsNaN(taus[n-1]) {
		n--
	}
	return n
}

// estimateH2H approximates |E_h2h| from the high-degree vertices' degree sum
// with the Chung–Lu expected-multiplicity model: an edge between v and u
// exists with probability ≈ d(v)·d(u)/(2m). The exact count requires a pass
// over the edges (TauSweep does that); this closed form backs the quick
// estimator. The integer sum converts exactly below 2^53, where it equals a
// float sum of the degrees.
func estimateH2H(highSum, m int64) int64 {
	if m == 0 || highSum == 0 {
		return 0
	}
	sum := float64(highSum)
	// Expected edges inside the high set ≈ (Σd)² / (4m), capped at m.
	est := int64(sum * sum / (4 * float64(m)))
	if est > m {
		est = m
	}
	return est
}

// SweepPoint is one row of the τ pre-computation (Table 2's workload):
// exact column-array size and H2H count for a candidate τ.
type SweepPoint struct {
	Tau        float64
	Footprint  Footprint
	ExactH2H   int64
	ExactColmn int64
}

// TauSweep computes the exact memory footprint and the exact |E_h2h| of
// every candidate τ, sorted descending — the pre-computation step of §4.4
// whose run-time Table 2 reports. Beyond ChooseTau's degree pass and one
// pass over the degree array, it makes a second pass over the edges for
// ExactH2H, which only Table 2 and the tests read. An id the second pass
// yields outside the first pass's range (a file changed between passes)
// returns a wrapped graph.ErrVertexRange.
func TauSweep(src graph.EdgeStream, k int, taus []float64) ([]SweepPoint, error) {
	deg, m, err := graph.Degrees(src)
	if err != nil {
		return nil, err
	}
	sorted := descending(taus)
	ranks := make([]int32, len(deg))
	fps := footprints(deg, m, k, sorted, ranks)
	// An edge is H2H at every candidate from the larger of its endpoints'
	// ranks on: hist counts edges by that rank, and its prefix sums give
	// each candidate's count.
	n := len(ranks)
	hist := make([]int64, orderedLen(sorted)+1)
	var loopErr error
	err = src.Edges(func(u, v graph.V) bool {
		if int(u) >= n || int(v) >= n {
			loopErr = fmt.Errorf("memmodel: %w: edge (%d,%d) with n=%d", graph.ErrVertexRange, u, v, n)
			return false
		}
		hist[max(ranks[u], ranks[v])]++
		return true
	})
	if err == nil {
		err = loopErr
	}
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(sorted))
	for i, h2h := range atOrBelow(hist, len(sorted)) {
		f := fps[i]
		points[i] = SweepPoint{Tau: f.Tau, Footprint: f, ExactH2H: h2h, ExactColmn: f.ColumnArray / BytesPerID}
	}
	return points, nil
}

// ChooseTau returns the largest candidate τ whose §4.2 footprint fits
// budgetBytes, and whether any candidate fits. It makes one degree pass
// over the edges and one pass over the degree array for all candidates;
// the column array it charges is exact. Larger τ means more edges handled
// in memory and a better replication factor (§4.3), so the maximum feasible
// τ is optimal.
func ChooseTau(src graph.EdgeStream, k int, taus []float64, budgetBytes int64) (float64, bool, error) {
	deg, m, err := graph.Degrees(src)
	if err != nil {
		return 0, false, err
	}
	for _, f := range footprints(deg, m, k, descending(taus), nil) {
		if f.Total() <= budgetBytes {
			return f.Tau, true, nil
		}
	}
	return 0, false, nil
}
