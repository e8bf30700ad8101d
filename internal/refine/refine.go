// Package refine is the post-pass local-search refinement stage: it takes a
// finalized k-way edge partitioning (any algorithm in the repository) plus
// the captured per-edge assignment and improves the replication factor by
// evacuating boundary vertices, without ever worsening RF or pushing a
// partition past the (1+ε)·m/k balance guard.
//
// The move model follows the boundary-vertex local search of "Enhancing
// Balanced Graph Edge Partition with Effective Local Search" (arXiv
// 2012.09451): a boundary vertex v (replicated on ≥ 2 partitions) is
// evacuated from one hosting partition p by migrating all of v's p-edges to
// another partition q that already hosts v. The move removes v's replica on
// p (+1 gain) and may add the other endpoints of the moved edges to q (the
// cost term), so the estimated gain
//
//	gain(v, p→q) = 1 − |{moved edges (v,u) : u not replicated on q}|
//
// is evaluated per candidate q and only strictly positive moves are kept.
//
// Rounds are the safety boundary. Workers stride the vertices to scan; each
// groups its vertex's incidence by partition with one stable counting sort
// and scores every p→q evacuation from its group. The selected moves are
// applied with CAS claims on the assignment array. The masks of the
// endpoints of the migrated edges are then recomputed from the assignment,
// and the new replica total is compared against the round-start total.
// Moves never change which vertices are covered, so the total-replica
// ordering is exactly the RF ordering — a round that would worsen it is
// reverted wholesale before the table is touched, which turns the per-move
// estimate into a hard RF-never-worse guarantee at round granularity. A kept
// round writes the recomputed masks into the table in place.
//
// The first round scans the whole boundary. A vertex's gains depend only on
// the partitions of its own edges and the masks of its neighbours, and the
// loads only break ties among positive gains, which every such vertex turned
// into a selected move. So after a kept round only the dirty vertices can
// score differently: the endpoints of migrated edges, the neighbours of
// every vertex whose mask changed, and every vertex that had a selected
// move. Later rounds rescan just those, and find exactly the moves a full
// rescan would.
//
// The optional split–merge mode (merge.go, after the Split_Merge_Partitioner
// scheme) partitions into x·k buckets first and greedily merges back to k by
// max-overlap pairing before the move rounds run.
package refine

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"hep/internal/bitset"
	"hep/internal/graph"
	"hep/internal/obs"
	"hep/internal/part"
	"hep/internal/pstate"
	"hep/internal/shard"
)

// Refinement modes accepted by Options.Mode (and hep.Config.Refine).
const (
	// ModeMoves runs boundary-vertex move rounds on the algorithm's own
	// k-way output.
	ModeMoves = "moves"
	// ModeSplitMerge partitions into SplitFactor·k buckets, greedily merges
	// back to k by max-overlap pairing, then runs the move rounds.
	ModeSplitMerge = "split-merge"
)

// Defaults for the zero values of Options.
const (
	DefaultRounds      = 4
	DefaultEps         = 0.05
	DefaultSplitFactor = 2
)

// maxEvacuate caps the edge bundle one move may migrate. Evacuating a hub
// from a partition holding thousands of its edges is never a net win — the
// cost term saturates long before — and skipping those keeps the scan and
// the claim loop bounded per vertex.
const maxEvacuate = 1 << 10

// ErrNoTable reports a Result whose vertex-major replica table is nil or
// dead (released for a shard transplant and not frozen back). Refinement
// reads the table on every gain probe, so such a result is rejected up
// front instead of panicking inside the scan.
var ErrNoTable = errors.New("refine: result has no live replica table")

// Options parameterizes one refinement pass.
type Options struct {
	// Mode is ModeMoves (the default for "") or ModeSplitMerge.
	Mode string
	// Rounds bounds the move rounds (0 = DefaultRounds). Rounds stop early
	// when a sweep proposes no positive-gain move or a round is reverted.
	Rounds int
	// Workers is the scan/apply parallelism: 0 resolves to GOMAXPROCS,
	// 1 forces the exact sequential path (the determinism guarantee, same
	// contract as hep.Config.Workers).
	Workers int
	// Eps is the balance slack ε of the guard (1+ε)·m/k (0 = DefaultEps).
	// A partitioning that already exceeds the guard is not made stricter:
	// the effective bound is max(⌈(1+ε)·m/k⌉, input max load).
	Eps float64
	// SplitFactor is ModeSplitMerge's over-partitioning factor x (0 =
	// DefaultSplitFactor).
	SplitFactor int
	// Obs receives refinement spans and counters (refine_rounds,
	// moves_applied, moves_rejected_balance, gain_recomputes). Nil disables.
	Obs *obs.Obs
	// RoundHook, if set, observes the result mid-pass: it is called once
	// with round 0 before any move (the input state) and then after every
	// round, reverted or not, with the result and the live assignment
	// array. Returning an error aborts the pass. The property harness
	// (parttest.RefineInvariants) validates every invariant here.
	RoundHook func(round int, res *part.Result, edges []graph.Edge, parts []int32) error
}

func (o Options) mode() string {
	if o.Mode == "" {
		return ModeMoves
	}
	return o.Mode
}

func (o Options) rounds() int {
	if o.Rounds <= 0 {
		return DefaultRounds
	}
	return o.Rounds
}

func (o Options) workers() int {
	return shard.Options{Workers: o.Workers}.Resolve()
}

func (o Options) eps() float64 {
	if o.Eps <= 0 {
		return DefaultEps
	}
	return o.Eps
}

func (o Options) splitFactor() int {
	if o.SplitFactor < 2 {
		return DefaultSplitFactor
	}
	return o.SplitFactor
}

// ValidMode reports whether mode names a refinement mode ("" counts: it is
// the ModeMoves default).
func ValidMode(mode string) bool {
	return mode == "" || mode == ModeMoves || mode == ModeSplitMerge
}

// Stats summarizes one refinement pass.
type Stats struct {
	// Rounds is the number of move rounds executed (including a reverted
	// final round and the terminating empty sweep).
	Rounds int
	// Applied counts moves that claimed at least one edge.
	Applied int64
	// RejectedBalance counts moves rejected by the balance guard.
	RejectedBalance int64
	// RejectedConflict counts moves whose every edge was claimed first by a
	// competing move.
	RejectedConflict int64
	// PartialClaims counts applied moves that claimed fewer edges than they
	// scanned (a competing move took the rest).
	PartialClaims int64
	// Interactions counts selected moves whose source partition another
	// selected move could drain or feed mid-apply — the moves whose outcome
	// can depend on claim order. Computed from the deterministic move list
	// before the apply phase: zero interactions and zero balance rejections
	// mean every round was an order-independent remap (the property the
	// fuzz harness keys on).
	Interactions int64
	// GainRecomputes counts candidate-gain evaluations in the scan phase:
	// the whole boundary in the first round, the dirty vertices after.
	GainRecomputes int64
	// MovedEdges counts edge migrations across all applied moves.
	MovedEdges int64
	// EstimatedGain sums the estimated replica gain of the selected moves.
	EstimatedGain int64
	// RevertedRounds counts rounds rolled back because the recomputed
	// replica masks showed a net RF regression (at most 1: a revert stops
	// the pass).
	RevertedRounds int
	// Merges and ForcedMerges are ModeSplitMerge's pairing counts; a forced
	// merge had no partner under the balance bound and took the min-load
	// pair instead.
	Merges       int
	ForcedMerges int
	// Bound is the effective balance bound the move rounds enforced.
	Bound int64
}

// BalanceBound is the guard the move rounds enforce: ⌈(1+eps)·m/k⌉, never
// stricter than the input's max load (refinement improves RF; it does not
// repair a pre-existing imbalance).
func BalanceBound(m int64, k int, eps float64, inputMax int64) int64 {
	if k < 1 {
		return m
	}
	bound := int64(math.Ceil((1 + eps) * float64(m) / float64(k)))
	if inputMax > bound {
		bound = inputMax
	}
	return bound
}

// Capture is the assignment sink the refinement wrapper interposes on the
// inner algorithm: it records every edge with its partition, in delivery
// order, giving the post-pass the O(m) assignment array the Result alone
// does not retain.
type Capture struct {
	Edges []graph.Edge
	Parts []int32
}

// newCapture returns a Capture sized for m edges, so recording never copies
// the arrays to grow them; m ≤ 0 (an unknown count) falls back to append
// growth.
func newCapture(m int64) *Capture {
	if m <= 0 {
		return &Capture{}
	}
	return &Capture{Edges: make([]graph.Edge, 0, m), Parts: make([]int32, 0, m)}
}

// Assign implements part.Sink.
func (c *Capture) Assign(u, v graph.V, p int) {
	c.Edges = append(c.Edges, graph.Edge{U: u, V: v})
	c.Parts = append(c.Parts, int32(p))
}

// Replay delivers the captured (possibly refined) assignment to sink.
func (c *Capture) Replay(sink part.Sink) {
	if sink == nil {
		return
	}
	for i, e := range c.Edges {
		sink.Assign(e.U, e.V, int(c.Parts[i]))
	}
}

// checkLive rejects results the pass cannot read: nil or transplanted
// (Release'd) replica tables, and an assignment array that does not match
// the result.
func checkLive(res *part.Result, edges []graph.Edge, parts []int32) error {
	if res == nil {
		return errors.New("refine: nil result")
	}
	if res.Reps == nil || res.Loads == nil || res.Reps.N() < res.N || res.Reps.K() < res.K {
		return fmt.Errorf("%w (n=%d k=%d)", ErrNoTable, res.N, res.K)
	}
	if len(edges) != len(parts) {
		return fmt.Errorf("refine: %d edges with %d assignments", len(edges), len(parts))
	}
	if int64(len(edges)) != res.M {
		return fmt.Errorf("refine: captured %d assignments, result has M=%d", len(edges), res.M)
	}
	return nil
}

// move is one selected evacuation: migrate v's cnt edges out of partition
// from into partition to, for an estimated replica gain.
type move struct {
	v        graph.V
	from, to int32
	cnt      int32
	gain     int32
}

// incidence is the per-vertex CSR over edge ids, built once per pass. A
// self loop contributes a single entry.
type incidence struct {
	off []int64
	ids []int32
}

func buildIncidence(n int, edges []graph.Edge) incidence {
	off := make([]int64, n+1)
	for _, e := range edges {
		off[e.U+1]++
		if e.V != e.U {
			off[e.V+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	ids := make([]int32, off[n])
	cur := make([]int64, n)
	copy(cur, off[:n])
	for i, e := range edges {
		ids[cur[e.U]] = int32(i)
		cur[e.U]++
		if e.V != e.U {
			ids[cur[e.V]] = int32(i)
			cur[e.V]++
		}
	}
	return incidence{off: off, ids: ids}
}

func (in incidence) edgesOf(v graph.V) []int32 {
	return in.ids[in.off[v]:in.off[v+1]]
}

// Run executes the boundary-move rounds in place: res, edges and parts must
// describe the same partitioning (parts[i] is the partition of edges[i]).
// On return the three are mutually consistent with every applied move.
func Run(res *part.Result, edges []graph.Edge, parts []int32, o Options) (Stats, error) {
	var st Stats
	if err := checkLive(res, edges, parts); err != nil {
		return st, err
	}
	n, k, m := res.N, res.K, int64(len(edges))
	if o.RoundHook != nil {
		if err := o.RoundHook(0, res, edges, parts); err != nil {
			return st, err
		}
	}
	if k < 2 || m == 0 || n == 0 {
		return st, nil
	}
	workers := o.workers()
	st.Bound = BalanceBound(m, k, o.eps(), res.Loads.Max())
	inc := buildIncidence(n, edges)

	// Per-partition loads under atomic update: the apply phase reserves
	// capacity with CAS before claiming edges, so the balance guard holds
	// under any interleaving.
	loads := make([]atomic.Int64, k)
	for p := 0; p < k; p++ {
		loads[p].Store(res.Counts[p])
	}

	c := o.Obs.Counters()
	sp := o.Obs.Span("refine-moves")
	defer sp.End()

	snapshot := make([]int32, len(parts))
	loadSnap := make([]int64, k)
	mark := bitset.New(n)
	var delta replicaDelta

	verts := collectBoundary(res.Reps, n)
	for round := 1; round <= o.rounds(); round++ {
		// An empty rescan set still makes the terminating empty sweep,
		// unless no boundary vertex is left at all.
		if len(verts) == 0 && len(collectBoundary(res.Reps, n)) == 0 {
			break
		}
		rsp := o.Obs.Span("refine-round")
		moves, evals := scanMoves(res.Reps, inc, edges, parts, verts, loads, st.Bound, workers)
		for w, e := range evals {
			c.Add(w, obs.CtrGainRecomputes, e)
			st.GainRecomputes += e
		}
		c.Add(0, obs.CtrRefineRounds, 1)
		st.Rounds++
		if len(moves) == 0 {
			rsp.End()
			if o.RoundHook != nil {
				if err := o.RoundHook(round, res, edges, parts); err != nil {
					return st, err
				}
			}
			break
		}
		for _, mv := range moves {
			st.EstimatedGain += int64(mv.gain)
		}
		st.Interactions += countInteractions(moves, inc, edges, parts)

		copy(snapshot, parts)
		for p := 0; p < k; p++ {
			loadSnap[p] = loads[p].Load()
		}
		moved := applyMoves(moves, inc, parts, loads, st.Bound, workers, c, &st)

		// The assignment is the one source of truth after concurrent claims:
		// recompute the masks of the vertices it changed and enforce
		// RF-never-worse at round granularity. Moves do not change vertex
		// coverage, so a positive total-replica change is an RF regression.
		delta.diff(res.Reps, inc, edges, parts, snapshot, moves, mark)
		reverted := delta.total > 0
		if reverted {
			copy(parts, snapshot)
			for p := 0; p < k; p++ {
				loads[p].Store(loadSnap[p])
			}
			st.RevertedRounds++
		} else {
			changed := delta.apply(res.Reps)
			for p := 0; p < k; p++ {
				if d := loads[p].Load() - res.Counts[p]; d != 0 {
					res.Loads.Bulk(p, d)
				}
			}
			verts = rescanSet(res.Reps, inc, edges, delta.verts, changed, moves, mark)
		}
		rsp.Edges(moved).End()
		if o.RoundHook != nil {
			if err := o.RoundHook(round, res, edges, parts); err != nil {
				return st, err
			}
		}
		if reverted {
			break
		}
	}
	return st, nil
}

// collectBoundary returns the vertices replicated on ≥ 2 partitions, in
// ascending order.
func collectBoundary(t *pstate.Table, n int) []graph.V {
	var verts []graph.V
	for v := 0; v < n; v++ {
		if t.Count(graph.V(v)) >= 2 {
			verts = append(verts, graph.V(v))
		}
	}
	return verts
}

// scanMoves is the parallel gain sweep over verts (boundary vertices).
// Workers stride the vertices. Each groups its vertex's incidence by
// partition with one stable counting sort, then evaluates every (hosting
// partition p, other hosting partition q) evacuation from p's group and
// keeps the best strictly positive candidate per p. The merged move list is
// sorted by (gain desc, v asc, from asc), a total order, so it does not
// depend on the worker count. The second result holds each worker's
// candidate-gain evaluations. The apply phase is barrier-separated from the
// scan, so plain reads of parts are safe.
func scanMoves(t *pstate.Table, inc incidence, edges []graph.Edge, parts []int32,
	verts []graph.V, loads []atomic.Int64, bound int64, workers int) ([]move, []int64) {

	k, words := t.K(), t.Words()
	perWorker := make([][]move, workers)
	evals := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var local []move
			var nevals int64
			var nbrs []graph.V // v's neighbours grouped by edge partition
			var hosts []int32  // v's edge partitions, first-seen order
			cnt := make([]int32, k)
			end := make([]int32, k)
			for i := w; i < len(verts); i += workers {
				v := verts[i]
				ids := inc.edgesOf(v)
				hosts = hosts[:0]
				for _, eid := range ids {
					p := parts[eid]
					if cnt[p] == 0 {
						hosts = append(hosts, p)
					}
					cnt[p]++
				}
				off := int32(0)
				for _, p := range hosts {
					end[p] = off
					off += cnt[p]
				}
				nbrs = slices.Grow(nbrs[:0], len(ids))[:len(ids)]
				for _, eid := range ids {
					p, e := parts[eid], edges[eid]
					u := e.U
					if u == v {
						u = e.V
					}
					nbrs[end[p]] = u
					end[p]++
				}
				for _, p := range hosts {
					c := cnt[p]
					cnt[p] = 0
					if c > maxEvacuate || int64(c) > bound {
						continue
					}
					group := nbrs[end[p]-c : end[p]]
					bestGain, bestTo, bestLoad := int32(0), int32(-1), int64(0)
					for wi := 0; wi < words; wi++ {
						for mask := t.Word(v, wi); mask != 0; mask &= mask - 1 {
							q := wi<<6 + bits.TrailingZeros64(mask)
							if q == int(p) {
								continue
							}
							nevals++
							g := int32(1)
							for _, u := range group {
								if !t.Has(u, q) {
									g--
									if g < bestGain {
										break // cannot beat the current best
									}
								}
							}
							ql := loads[q].Load()
							if g > bestGain || (g == bestGain && bestTo >= 0 && ql < bestLoad) {
								bestGain, bestTo, bestLoad = g, int32(q), ql
							}
						}
					}
					if bestGain > 0 {
						local = append(local, move{v: v, from: p, to: bestTo, cnt: c, gain: bestGain})
					}
				}
			}
			perWorker[w], evals[w] = local, nevals
		}(w)
	}
	wg.Wait()

	var moves []move
	for _, l := range perWorker {
		moves = append(moves, l...)
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].gain != moves[j].gain {
			return moves[i].gain > moves[j].gain
		}
		if moves[i].v != moves[j].v {
			return moves[i].v < moves[j].v
		}
		return moves[i].from < moves[j].from
	})
	return moves, evals
}

// replicaDelta is one round's change to the replica table, computed from the
// assignment before the table is touched, so a reverted round has nothing to
// undo.
type replicaDelta struct {
	verts   []graph.V // endpoints of the edges the round migrated
	masks   []uint64  // their recomputed masks, Table.Words() per vertex
	total   int64     // Σ popcount(new mask) − popcount(old mask)
	changed []graph.V // apply's result: verts whose mask changed
}

// diff collects the endpoints of every edge whose partition differs from
// before (only the edges of the moves' vertices can) and recomputes their
// masks from the incidence. mark is scratch over n vertices, left clear.
func (d *replicaDelta) diff(t *pstate.Table, inc incidence, edges []graph.Edge,
	parts, before []int32, moves []move, mark *bitset.Set) {

	d.verts = d.verts[:0]
	for _, mv := range moves {
		for _, eid := range inc.edgesOf(mv.v) {
			if parts[eid] == before[eid] {
				continue
			}
			e := edges[eid]
			if !mark.TestAndSet(e.U) {
				d.verts = append(d.verts, e.U)
			}
			if !mark.TestAndSet(e.V) {
				d.verts = append(d.verts, e.V)
			}
		}
	}
	words := t.Words()
	d.masks = slices.Grow(d.masks[:0], len(d.verts)*words)[:len(d.verts)*words]
	clear(d.masks)
	d.total = 0
	for i, v := range d.verts {
		mark.Clear(v)
		mask := d.masks[i*words : (i+1)*words]
		for _, eid := range inc.edgesOf(v) {
			p := parts[eid]
			mask[p>>6] |= 1 << (uint(p) & 63)
		}
		for wi, nw := range mask {
			d.total += int64(bits.OnesCount64(nw) - bits.OnesCount64(t.Word(v, wi)))
		}
	}
}

// apply writes the recomputed masks into t with Add and Remove and returns
// the vertices whose mask changed (valid until the next apply).
func (d *replicaDelta) apply(t *pstate.Table) []graph.V {
	words := t.Words()
	d.changed = d.changed[:0]
	for i, v := range d.verts {
		changed := false
		for wi, nw := range d.masks[i*words : (i+1)*words] {
			ow := t.Word(v, wi)
			if nw == ow {
				continue
			}
			changed = true
			for b := nw &^ ow; b != 0; b &= b - 1 {
				t.Add(v, wi<<6+bits.TrailingZeros64(b))
			}
			for b := ow &^ nw; b != 0; b &= b - 1 {
				t.Remove(v, wi<<6+bits.TrailingZeros64(b))
			}
		}
		if changed {
			d.changed = append(d.changed, v)
		}
	}
	return d.changed
}

// rescanSet returns, in ascending order, the boundary vertices whose scan
// can differ from the last one after a kept round: the endpoints of the
// migrated edges (touched), the neighbours of every vertex whose mask
// changed, and every vertex that had a selected move — which also covers the
// moves the balance guard or a competing claim rejected. mark is scratch
// over n vertices, left clear.
func rescanSet(t *pstate.Table, inc incidence, edges []graph.Edge,
	touched, changed []graph.V, moves []move, mark *bitset.Set) []graph.V {

	for _, v := range touched {
		mark.Set(v)
	}
	for _, mv := range moves {
		mark.Set(mv.v)
	}
	for _, v := range changed {
		for _, eid := range inc.edgesOf(v) {
			mark.Set(edges[eid].U)
			mark.Set(edges[eid].V)
		}
	}
	var verts []graph.V
	mark.Range(func(v uint32) bool {
		if t.Count(v) >= 2 {
			verts = append(verts, v)
		}
		return true
	})
	mark.Reset()
	return verts
}

// countInteractions reports how many selected moves the apply phase's claim
// order could affect. Move X = (w, f→t) is order-sensitive iff another
// selected move can touch its source edge set mid-apply: a scanned edge
// (p == f) whose other endpoint also evacuates f (a shared claim), or any
// edge of w that another move would migrate into f (an arrival, M.from == p
// and M.to == f — including w's own move out of another partition pushing a
// self-loop home). The move list is deterministic per round, so this count
// is identical for every worker schedule.
func countInteractions(moves []move, inc incidence, edges []graph.Edge, parts []int32) int64 {
	sel := make(map[graph.V][]move, len(moves))
	for _, mv := range moves {
		sel[mv.v] = append(sel[mv.v], mv)
	}
	var n int64
	for _, mv := range moves {
	nextMove:
		for _, eid := range inc.edgesOf(mv.v) {
			p := parts[eid]
			z := edges[eid].U
			if z == mv.v {
				z = edges[eid].V
			}
			for _, o := range sel[z] {
				if o == mv {
					continue
				}
				if (p == mv.from && z != mv.v && o.from == mv.from) ||
					(o.from == p && o.to == mv.from) {
					n++
					break nextMove
				}
			}
		}
	}
	return n
}

// applyResult is one worker's apply-phase tally.
type applyResult struct {
	applied, rejBalance, rejConflict, partial, moved int64
}

// applyMoves claims the selected moves with per-edge CAS on the assignment
// array. Each move first reserves capacity on its target under the balance
// bound, then claims up to cnt of v's from-edges; edges a competing move
// claimed first stay claimed (v still leaves from — the competitor moved
// them out of from too). Claims are capped at the reservation so the guard
// can never be exceeded by edges that migrated into from concurrently.
func applyMoves(moves []move, inc incidence, parts []int32, loads []atomic.Int64,
	bound int64, workers int, c *obs.Counters, st *Stats) int64 {

	results := make([]applyResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r applyResult
			for i := w; i < len(moves); i += workers {
				mv := moves[i]
				reserved := false
				for {
					cur := loads[mv.to].Load()
					if cur+int64(mv.cnt) > bound {
						break
					}
					if loads[mv.to].CompareAndSwap(cur, cur+int64(mv.cnt)) {
						reserved = true
						break
					}
				}
				if !reserved {
					r.rejBalance++
					continue
				}
				claimed := int64(0)
				for _, eid := range inc.edgesOf(mv.v) {
					if claimed == int64(mv.cnt) {
						break
					}
					if atomic.CompareAndSwapInt32(&parts[eid], mv.from, mv.to) {
						claimed++
					}
				}
				if claimed == 0 {
					loads[mv.to].Add(-int64(mv.cnt))
					r.rejConflict++
					continue
				}
				if claimed < int64(mv.cnt) {
					loads[mv.to].Add(claimed - int64(mv.cnt))
					r.partial++
				}
				loads[mv.from].Add(-claimed)
				r.applied++
				r.moved += claimed
			}
			results[w] = r
		}(w)
	}
	wg.Wait()

	var moved int64
	for w, r := range results {
		c.Add(w, obs.CtrMovesApplied, r.applied)
		c.Add(w, obs.CtrMovesRejectedBalance, r.rejBalance)
		st.Applied += r.applied
		st.RejectedBalance += r.rejBalance
		st.RejectedConflict += r.rejConflict
		st.PartialClaims += r.partial
		st.MovedEdges += r.moved
		moved += r.moved
	}
	return moved
}
