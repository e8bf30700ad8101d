// Package core implements the paper's primary contribution: the NE++
// in-memory edge partitioner (§3.2) and the HEP hybrid system that combines
// it with informed stateful streaming (§3, §3.3).
package core

import (
	"math"

	"hep/internal/bitset"
	"hep/internal/graph"
	"hep/internal/part"
	"hep/internal/vheap"
)

// Tracer observes column-array accesses; the paging simulator replays the
// trace through an LRU page cache (substitute for the cgroups experiment of
// paper §5.5). A nil tracer costs one branch per adjacency-list scan.
type Tracer interface {
	// Touch records an access to column-array entries [off, off+n).
	Touch(off int64, n int32)
}

// Stats collects the instrumentation behind Figures 5 and 7 and general
// diagnostics of a NE++ run.
type Stats struct {
	// CoreDegSum/CoreCount aggregate the degrees of vertices moved to the
	// core set; SecDegSum/SecCount those of vertices that remained in a
	// secondary set at the end of a partition (Figure 5 plots the
	// normalized ratio of the two means).
	CoreDegSum, SecDegSum int64
	CoreCount, SecCount   int64
	// CleanupRemoved counts column-array entries removed by the clean-up
	// algorithm (Figure 7 reports CleanupRemoved / ColEntries).
	CleanupRemoved int64
	// CleanupAssigned counts low↔high edges whose assignment was deferred
	// to clean-up (see DESIGN.md).
	CleanupAssigned int64
	// AssignRemoved counts entries swap-removed at assignment time (the
	// low↔high rule); these are not clean-up removals.
	AssignRemoved int64
	// SpillEdges counts edges spilled to the next partition at the
	// capacity bound (Algorithm 1, lines 25–28).
	SpillEdges int64
	// Seeds counts Initialize invocations (Algorithm 1, lines 1–3).
	Seeds int64
	// ColEntries is the column-array length after construction.
	ColEntries int64
	// H2HEdges is |E_h2h| handed to the streaming phase.
	H2HEdges int64
	// InMemBound is the adapted per-partition capacity ⌈|E \ E_h2h|/k⌉.
	InMemBound int64
}

// Plan carries the hooks that let one NE++ kernel serve both HEP's
// in-memory phase and the out-of-core Buffered partitioner's batches (the
// buffered model of Chhabra et al.: each buffer's graph is partitioned by the
// in-memory algorithm, informed by the global state): placement ids,
// expansion order and limits, a replica warm start, a seed window and a
// leftover sink. NewNEPP fills in HEP's values; Reset takes any plan.
type Plan struct {
	// IDs maps CSR vertex ids to the ids edges are placed under
	// (nil = identity, HEP's case).
	IDs []graph.V
	// Order lists the partitions to expand, in expansion order. Limits[i]
	// bounds res.Counts[Order[i]] and so includes the partition's existing
	// load. Spills cascade along Order: an edge whose slot is full goes to
	// the next slot with room, and its endpoints pre-seed the next slot's
	// secondary set (Algorithm 1, line 28).
	Order  []int
	Limits []int64
	// Warm, if non-nil, calls join for every CSR vertex already replicated
	// on partition p. Before p expands, each such vertex joins S_p through
	// moveToSecondary, so the edges between them are placed on p.
	Warm func(p int, join func(v graph.V))
	// SeedWindow, if above 1, picks each cold seed as the live vertex of
	// least remaining degree among the next SeedWindow live vertices past
	// the seed cursor (looking at most 8·SeedWindow positions ahead): the
	// NE-style low-degree seed. 0 keeps the plain sequential
	// initialization of §3.2.3 (HEP).
	SeedWindow int
	// Leftover receives (in placement ids) every edge the kernel does not
	// place: spills past the last slot of Order and the remainder of
	// Algorithm 3.
	Leftover func(u, v graph.V)
}

// NEPP is the NE++ expansion kernel (§3.2) over a mutable CSR: a
// min-external-degree heap drives core moves, core and secondary sets track
// C and S_i, assigned low↔high entries are swap-removed, low↔low entries
// are cleaned up lazily at partition boundaries, and spilled edges warm-start
// the next partition. The CSR is consumed: its size fields shrink as edges
// are removed.
type NEPP struct {
	csr    *graph.CSR
	res    *part.Result
	plan   Plan
	pruned bool // the CSR has high-degree vertices (τ < ∞)

	core    *bitset.Set // C: global core set
	curS    *bitset.Set // S_i of the partition currently expanding
	members []graph.V   // insertion-ordered S_i members (for clean-up/reset)
	heap    *vheap.Heap // low-degree S_i members keyed by external degree

	// Spill-over warm start (Algorithm 1, line 28): endpoints of edges
	// spilled to the next slot pre-seed its secondary set, so the next
	// expansion resumes at the spill boundary instead of a cold seed.
	nextS       *bitset.Set
	nextMembers []graph.V
	cur         int // slot of Order currently expanding

	seedCursor int // sequential initialization (§3.2.3)

	stats  Stats
	tracer Tracer
}

// NewNEPP prepares HEP's NE++ run over csr writing into res (which may
// already exist so HEP can continue with the streaming phase on the same
// result): partitions 0..k-2 expand in order, each up to the bound
// ⌈|E∖E_h2h|/k⌉, and partition k-1 receives the leftovers.
func NewNEPP(csr *graph.CSR, k int, res *part.Result, tracer Tracer) *NEPP {
	n := csr.N()
	p := &NEPP{
		core:   bitset.New(n),
		curS:   bitset.New(n),
		nextS:  bitset.New(n),
		heap:   vheap.New(n),
		tracer: tracer,
	}
	bound := (csr.InMemEdges() + int64(k) - 1) / int64(k)
	plan := Plan{
		Order:    make([]int, k-1),
		Limits:   make([]int64, k-1),
		Leftover: func(u, v graph.V) { res.Assign(u, v, k-1) },
	}
	for i := range plan.Order {
		plan.Order[i], plan.Limits[i] = i, bound
	}
	p.Reset(csr, res, plan)
	p.stats.InMemBound = bound
	return p
}

// NewKernel allocates kernel state for CSRs of up to maxN vertices, to be
// reused across runs through Reset. Every array is allocated at its full
// size up front, so Bytes is exact and stable under a memory budget.
func NewKernel(maxN int) *NEPP {
	return &NEPP{
		core:        bitset.New(maxN),
		curS:        bitset.New(maxN),
		nextS:       bitset.New(maxN),
		heap:        vheap.NewWithCap(maxN, maxN),
		members:     make([]graph.V, 0, maxN),
		nextMembers: make([]graph.V, 0, maxN),
	}
}

// Bytes returns the kernel's own allocation (the CSR and result excluded).
func (p *NEPP) Bytes() int64 {
	return p.core.Bytes() + p.curS.Bytes() + p.nextS.Bytes() + p.heap.Bytes() +
		int64(cap(p.members))*4 + int64(cap(p.nextMembers))*4
}

// Reset prepares the kernel for a run over csr (at most the vertex count
// the kernel was sized for) with the given plan, clearing the state a
// previous run left behind.
func (p *NEPP) Reset(csr *graph.CSR, res *part.Result, plan Plan) {
	p.core.Reset()
	p.clearSecondary()
	for _, v := range p.nextMembers {
		p.nextS.Clear(v)
	}
	p.nextMembers = p.nextMembers[:0]
	p.csr, p.res, p.plan = csr, res, plan
	p.pruned = !math.IsInf(csr.Tau(), 1)
	p.cur, p.seedCursor = 0, 0
	p.stats = Stats{ColEntries: csr.ColLen(), H2HEdges: csr.H2H().Len()}
}

// Stats returns the run statistics (valid after Run).
func (p *NEPP) Stats() Stats { return p.stats }

// Core exposes the global core bitset (for tests and ablations).
func (p *NEPP) Core() *bitset.Set { return p.core }

// Run executes the NE++ partitioning: warm start, expansion and clean-up
// for every slot of the plan's order (Algorithm 1 + Algorithm 2), then the
// remaining-edge scan (Algorithm 3), whose edges go to the leftover sink.
func (p *NEPP) Run() {
	for i := range p.plan.Order {
		p.cur = i
		p.warmStart(i)
		exhausted := p.expand(i)
		p.cleanup(i)
		p.advanceSecondary()
		if exhausted {
			break
		}
	}
	p.assignRemaining()
}

// full reports whether slot i has reached its limit.
func (p *NEPP) full(i int) bool {
	return p.res.Counts[p.plan.Order[i]] >= p.plan.Limits[i]
}

// warmStart joins the plan's warm vertices for slot i to S_i, stopping once
// the slot is full so replicated territory is never spilled onward.
func (p *NEPP) warmStart(i int) {
	if p.plan.Warm == nil {
		return
	}
	p.plan.Warm(p.plan.Order[i], func(v graph.V) {
		if p.full(i) || p.core.Has(v) || p.curS.Has(v) || p.csr.ValidDegree(v) == 0 {
			return
		}
		p.moveToSecondary(v, i)
	})
}

// expand grows slot i until its limit is reached. It reports whether the
// in-memory graph was exhausted (no seed vertex remains).
func (p *NEPP) expand(i int) bool {
	for !p.full(i) {
		var v graph.V
		if p.heap.Len() > 0 {
			v, _ = p.heap.PopMin()
		} else {
			seed, ok := p.nextSeed()
			if !ok {
				return true
			}
			p.stats.Seeds++
			v = seed
		}
		p.moveToCore(v, i)
	}
	return false
}

// nextSeed performs the sequential initialization of §3.2.3: a cursor walks
// the vertex ids once; every skip reason (in core, high-degree, no
// unassigned edges) is permanent, so no vertex is ever revisited. With a
// seed window the least-degree live vertex of a bounded window past the
// cursor is chosen instead of the cursor's own; the window costs O(window)
// per seed, never a rescan of the dead prefix.
func (p *NEPP) nextSeed() (graph.V, bool) {
	n := p.csr.N()
	for p.seedCursor < n && !p.live(graph.V(p.seedCursor)) {
		p.seedCursor++
	}
	if p.seedCursor == n {
		return 0, false
	}
	seed := graph.V(p.seedCursor)
	if w := p.plan.SeedWindow; w > 1 {
		best, live := p.csr.ValidDegree(seed), 1
		for s, end := p.seedCursor+1, min(n, p.seedCursor+8*w); s < end && live < w; s++ {
			v := graph.V(s)
			if !p.live(v) {
				continue
			}
			live++
			if d := p.csr.ValidDegree(v); d < best {
				seed, best = v, d
			}
		}
	}
	return seed, true
}

// live reports whether v can seed an expansion: outside the core,
// low-degree, with unassigned edges.
func (p *NEPP) live(v graph.V) bool {
	return !p.core.Has(v) && !p.csr.IsHigh(v) && p.csr.ValidDegree(v) > 0
}

// moveToCore implements Algorithm 1, lines 12–15, adapted to the pruned
// graph: high-degree neighbors are pulled into S_i without scanning their
// (nonexistent) adjacency lists, and the connecting edge is assigned here,
// from the low side, with immediate removal (see DESIGN.md).
func (p *NEPP) moveToCore(v graph.V, i int) {
	p.core.Set(v)
	p.heap.Remove(v) // no-op unless v was pre-seeded and chosen as seed
	p.stats.CoreDegSum += int64(p.csr.Degree(v))
	p.stats.CoreCount++

	if p.tracer != nil {
		off, n := p.csr.OutSpan(v)
		p.tracer.Touch(off, n)
		off, n = p.csr.InSpan(v)
		p.tracer.Touch(off, n)
	}

	// Out-list: entries are edges (v,u) in input orientation.
	out := p.csr.Out(v)
	for idx := int32(0); idx < int32(len(out)); {
		u := out[idx]
		switch {
		case p.pruned && p.csr.IsHigh(u):
			if !p.curS.Has(u) {
				p.curS.Set(u)
				p.members = append(p.members, u)
			}
			p.assign(v, u, i)
			p.csr.RemoveOutAt(v, idx)
			p.stats.AssignRemoved++
			out = p.csr.Out(v)
		case p.core.Has(u) || p.curS.Has(u):
			idx++ // edge already assigned when u joined C ∪ S_i
		default:
			p.moveToSecondary(u, i)
			idx++
		}
	}
	in := p.csr.In(v)
	for idx := int32(0); idx < int32(len(in)); {
		u := in[idx]
		switch {
		case p.pruned && p.csr.IsHigh(u):
			if !p.curS.Has(u) {
				p.curS.Set(u)
				p.members = append(p.members, u)
			}
			p.assign(u, v, i)
			p.csr.RemoveInAt(v, idx)
			p.stats.AssignRemoved++
			in = p.csr.In(v)
		case p.core.Has(u) || p.curS.Has(u):
			idx++
		default:
			p.moveToSecondary(u, i)
			idx++
		}
	}
}

// moveToSecondary implements Algorithm 1, lines 16–28: it adds a low-degree
// vertex to S_i, assigns its edges toward C ∪ S_i, computes its external
// degree and inserts it into the min-heap. Assigned low↔low entries are left
// in place (lazy removal, §3.2.2); assigned low↔high entries are
// swap-removed immediately to keep "entry present ⇒ unassigned" for high
// neighbors.
func (p *NEPP) moveToSecondary(v graph.V, i int) {
	p.curS.Set(v)
	p.members = append(p.members, v)

	if p.tracer != nil {
		off, n := p.csr.OutSpan(v)
		p.tracer.Touch(off, n)
		off, n = p.csr.InSpan(v)
		p.tracer.Touch(off, n)
	}

	var dext int32
	out := p.csr.Out(v)
	for idx := int32(0); idx < int32(len(out)); {
		u := out[idx]
		switch {
		case p.pruned && p.csr.IsHigh(u):
			if p.curS.Has(u) {
				p.assign(v, u, i)
				p.csr.RemoveOutAt(v, idx)
				p.stats.AssignRemoved++
				out = p.csr.Out(v)
			} else {
				dext++
				idx++
			}
		case p.core.Has(u):
			p.assign(v, u, i)
			idx++
		case p.curS.Has(u):
			p.assign(v, u, i)
			if p.heap.Contains(u) {
				p.heap.Add(u, -1)
			}
			idx++
		default:
			dext++
			idx++
		}
	}
	in := p.csr.In(v)
	for idx := int32(0); idx < int32(len(in)); {
		u := in[idx]
		switch {
		case p.pruned && p.csr.IsHigh(u):
			if p.curS.Has(u) {
				p.assign(u, v, i)
				p.csr.RemoveInAt(v, idx)
				p.stats.AssignRemoved++
				in = p.csr.In(v)
			} else {
				dext++
				idx++
			}
		case p.core.Has(u):
			p.assign(u, v, i)
			idx++
		case p.curS.Has(u):
			p.assign(u, v, i)
			if p.heap.Contains(u) {
				p.heap.Add(u, -1)
			}
			idx++
		default:
			dext++
			idx++
		}
	}
	p.heap.Push(v, dext)
}

// assign places an edge into slot i, spilling along the plan's order when
// slot i is at its limit (Algorithm 1, lines 25–28). Endpoints of edges
// spilled into the immediately following slot pre-seed its secondary set,
// giving the next expansion a warm start at the spill boundary; deeper
// cascades (a single expansion step overshooting more than one slot's
// limit) only set replica bits. Edges spilled past the last slot go to the
// leftover sink.
func (p *NEPP) assign(u, v graph.V, i int) {
	order := p.plan.Order
	target := i
	for target < len(order) && p.full(target) {
		target++
	}
	if target != i {
		p.stats.SpillEdges++
		if target == p.cur+1 && target < len(order) {
			p.preseed(u)
			p.preseed(v)
		}
	}
	if ids := p.plan.IDs; ids != nil {
		u, v = ids[u], ids[v]
	}
	if target == len(order) {
		p.plan.Leftover(u, v)
		return
	}
	p.res.Assign(u, v, order[target])
}

// preseed adds a spilled-edge endpoint to the next slot's secondary set
// (Algorithm 1, line 28).
func (p *NEPP) preseed(v graph.V) {
	if !p.nextS.Has(v) {
		p.nextS.Set(v)
		p.nextMembers = append(p.nextMembers, v)
	}
}

// cleanup implements Algorithm 2: for every vertex remaining in S_i, remove
// the adjacency entries pointing into C ∪ S_i. Low↔low entries found here
// are already assigned (they were assigned when their second endpoint
// joined); low↔high entries still present are *not* assigned yet — they are
// assigned to p_i now, completing the pruned-graph adaptation.
func (p *NEPP) cleanup(i int) {
	for _, v := range p.members {
		if p.csr.IsHigh(v) {
			// High-degree vertices always remain in S_i and own no lists.
			p.stats.SecDegSum += int64(p.csr.Degree(v))
			p.stats.SecCount++
			continue
		}
		if p.core.Has(v) {
			// Core lists are never read again (Theorem 3.1); the vertex
			// was counted as a core move already.
			continue
		}
		p.stats.SecDegSum += int64(p.csr.Degree(v))
		p.stats.SecCount++

		if p.tracer != nil {
			off, n := p.csr.OutSpan(v)
			p.tracer.Touch(off, n)
			off, n = p.csr.InSpan(v)
			p.tracer.Touch(off, n)
		}

		out := p.csr.Out(v)
		for idx := int32(0); idx < int32(len(out)); {
			u := out[idx]
			switch {
			case p.pruned && p.csr.IsHigh(u):
				if p.curS.Has(u) {
					p.assign(v, u, i)
					p.csr.RemoveOutAt(v, idx)
					p.stats.CleanupAssigned++
					p.stats.CleanupRemoved++
					out = p.csr.Out(v)
				} else {
					idx++
				}
			case p.core.Has(u) || p.curS.Has(u):
				p.csr.RemoveOutAt(v, idx)
				p.stats.CleanupRemoved++
				out = p.csr.Out(v)
			default:
				idx++
			}
		}
		in := p.csr.In(v)
		for idx := int32(0); idx < int32(len(in)); {
			u := in[idx]
			switch {
			case p.pruned && p.csr.IsHigh(u):
				if p.curS.Has(u) {
					p.assign(u, v, i)
					p.csr.RemoveInAt(v, idx)
					p.stats.CleanupAssigned++
					p.stats.CleanupRemoved++
					in = p.csr.In(v)
				} else {
					idx++
				}
			case p.core.Has(u) || p.curS.Has(u):
				p.csr.RemoveInAt(v, idx)
				p.stats.CleanupRemoved++
				in = p.csr.In(v)
			default:
				idx++
			}
		}
	}
}

// advanceSecondary clears S_i state and installs the pre-seeded S_{i+1}.
// Pre-seeded low-degree members enter the heap with external degree equal
// to their remaining valid degree: at a partition boundary every valid
// entry of a non-core vertex is an unassigned edge, and edges between two
// pre-seeded members were all assigned in the spilling partition, so no
// valid entry points inside S_{i+1} (see DESIGN.md).
func (p *NEPP) advanceSecondary() {
	p.clearSecondary()

	p.curS, p.nextS = p.nextS, p.curS
	p.members, p.nextMembers = p.nextMembers, p.members
	for _, v := range p.members {
		if p.core.Has(v) || p.csr.IsHigh(v) {
			continue
		}
		if d := p.csr.ValidDegree(v); d > 0 {
			p.heap.Push(v, d)
		}
	}
}

// clearSecondary empties S_i and the heap.
func (p *NEPP) clearSecondary() {
	for _, v := range p.members {
		p.curS.Clear(v)
	}
	p.members = p.members[:0]
	p.heap.Reset()
}

// assignRemaining implements Algorithm 3: the leftover sink receives every
// remaining in-memory edge by scanning the adjacency lists of low-degree
// vertices outside the core set. Out-entries are sent from the left-hand
// endpoint; in-entries only when the neighbor is high-degree (low↔low edges
// are covered exactly once by their left endpoint's out-list).
func (p *NEPP) assignRemaining() {
	ids, leftover := p.plan.IDs, p.plan.Leftover
	n := p.csr.N()
	for vi := 0; vi < n; vi++ {
		v := graph.V(vi)
		if p.core.Has(v) || p.csr.IsHigh(v) {
			continue
		}
		if p.tracer != nil {
			off, cnt := p.csr.OutSpan(v)
			p.tracer.Touch(off, cnt)
			off, cnt = p.csr.InSpan(v)
			p.tracer.Touch(off, cnt)
		}
		gv := v
		if ids != nil {
			gv = ids[v]
		}
		for _, u := range p.csr.Out(v) {
			if ids != nil {
				u = ids[u]
			}
			leftover(gv, u)
		}
		for _, u := range p.csr.In(v) {
			if p.csr.IsHigh(u) {
				if ids != nil {
					u = ids[u]
				}
				leftover(u, gv)
			}
		}
	}
}
