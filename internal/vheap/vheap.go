// Package vheap implements an indexed binary min-heap over vertex ids.
//
// NE and NE++ select, at every expansion step, the secondary-set vertex with
// the minimum external degree (paper Algorithm 1, line 8). The paper's
// accounting (§4.2, item 5) uses "a min heap to store the external degrees of
// vertices in S_i and a lookup table to directly access the entry of a vertex
// in the min heap by its ID"; this package is exactly that pair. All
// operations are O(log n) except Len, Reset and Min, which are O(1) (Reset is
// O(size) to clear the lookup table lazily).
package vheap

// Heap is an indexed min-heap keyed by an int32 priority per vertex.
// The zero value is not usable; call New.
type Heap struct {
	ids  []uint32 // heap-ordered vertex ids
	keys []int32  // keys[j] is the priority of ids[j]
	pos  []int32  // pos[v] = index of v in ids, or -1
}

// New returns an empty heap able to hold vertices in [0, n).
func New(n int) *Heap {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &Heap{pos: pos}
}

// NewWithCap is New with the id/key arrays pre-allocated for c entries, so
// the heap never re-allocates while it holds at most c vertices — callers
// with a strict memory accounting (the out-of-core buffer budget) get an
// exact, stable Bytes() instead of append-growth overshoot.
func NewWithCap(n, c int) *Heap {
	h := New(n)
	h.ids = make([]uint32, 0, c)
	h.keys = make([]int32, 0, c)
	return h
}

// Len returns the number of vertices currently in the heap.
func (h *Heap) Len() int { return len(h.ids) }

// Contains reports whether vertex v is in the heap.
func (h *Heap) Contains(v uint32) bool { return h.pos[v] >= 0 }

// Key returns the current priority of v. It must be in the heap.
func (h *Heap) Key(v uint32) int32 { return h.keys[h.pos[v]] }

// Push inserts v with priority key. v must not already be in the heap.
func (h *Heap) Push(v uint32, key int32) {
	h.ids = append(h.ids, v)
	h.keys = append(h.keys, key)
	h.pos[v] = int32(len(h.ids) - 1)
	h.up(len(h.ids) - 1)
}

// PopMin removes and returns the vertex with the smallest priority.
// It must not be called on an empty heap.
func (h *Heap) PopMin() (v uint32, key int32) {
	v, key = h.ids[0], h.keys[0]
	h.removeAt(0)
	return v, key
}

// Min returns the vertex with the smallest priority without removing it.
func (h *Heap) Min() (v uint32, key int32) { return h.ids[0], h.keys[0] }

// Update changes the priority of v (which must be in the heap) to key.
func (h *Heap) Update(v uint32, key int32) {
	j := int(h.pos[v])
	old := h.keys[j]
	h.keys[j] = key
	if key < old {
		h.up(j)
	} else if key > old {
		h.down(j)
	}
}

// Add increases (or decreases, for negative delta) the priority of v by
// delta. v must be in the heap.
func (h *Heap) Add(v uint32, delta int32) {
	h.Update(v, h.Key(v)+delta)
}

// Remove deletes v from the heap if present and reports whether it was.
func (h *Heap) Remove(v uint32) bool {
	j := h.pos[v]
	if j < 0 {
		return false
	}
	h.removeAt(int(j))
	return true
}

// Reset empties the heap in O(current size).
func (h *Heap) Reset() {
	for _, v := range h.ids {
		h.pos[v] = -1
	}
	h.ids = h.ids[:0]
	h.keys = h.keys[:0]
}

// Bytes returns the approximate memory footprint of the heap's backing
// arrays in bytes (used by the §4.2 memory model).
func (h *Heap) Bytes() int64 {
	return int64(cap(h.ids))*4 + int64(cap(h.keys))*4 + int64(len(h.pos))*4
}

func (h *Heap) removeAt(j int) {
	last := len(h.ids) - 1
	h.pos[h.ids[j]] = -1
	if j != last {
		h.ids[j], h.keys[j] = h.ids[last], h.keys[last]
		h.pos[h.ids[j]] = int32(j)
	}
	h.ids = h.ids[:last]
	h.keys = h.keys[:last]
	if j < last {
		if !h.down(j) {
			h.up(j)
		}
	}
}

// up sifts j upward. Like down it moves a hole instead of swapping: the
// entry is held aside while the parents it passes shift down one level, so
// each level costs one entry write and one position write.
func (h *Heap) up(j int) {
	id, key := h.ids[j], h.keys[j]
	for j > 0 {
		parent := (j - 1) / 2
		if h.keys[parent] <= key {
			break
		}
		h.move(parent, j)
		j = parent
	}
	h.ids[j], h.keys[j] = id, key
	h.pos[id] = int32(j)
}

// down sifts j downward and reports whether it moved.
func (h *Heap) down(j int) bool {
	start := j
	id, key := h.ids[j], h.keys[j]
	n := len(h.ids)
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h.keys[r] < h.keys[l] {
			small = r
		}
		if key <= h.keys[small] {
			break
		}
		h.move(small, j)
		j = small
	}
	h.ids[j], h.keys[j] = id, key
	h.pos[id] = int32(j)
	return j != start
}

// move copies the entry at from into slot to.
func (h *Heap) move(from, to int) {
	h.ids[to], h.keys[to] = h.ids[from], h.keys[from]
	h.pos[h.ids[to]] = int32(to)
}
