package ooc

import (
	"hep/internal/graph"
	"hep/internal/shard"
)

// ErrDegreeOverflow is returned when a vertex's degree exceeds the int32
// range — a pathological multigraph replaying the same edge billions of
// times. It is graph.ErrDegreeOverflow: every degree count shares the guard.
var ErrDegreeOverflow = graph.ErrDegreeOverflow

// DegreePass computes exact vertex degrees in one pass over src, holding
// only the degree array plus whatever src keeps in flight (one chunk for a
// Stream) — the external-memory degree pass of the out-of-core pipeline.
// The degree array grows on demand, so the pass also discovers the vertex
// count: len(deg) is max id + 1 (or src.NumVertices() if larger). Each
// undirected edge contributes 1 to both endpoints; self-loops contribute 2.
// It is graph.DegreesGrow.
func DegreePass(src graph.EdgeStream) (deg []int32, m int64, err error) {
	return graph.DegreesGrow(src)
}

// DegreePassParallel is DegreePass; opts is ignored.
//
// Deprecated: the degree pass is single-goroutine (a batch-parallel pass
// ran about 8× slower per edge on two cores). Call DegreePass.
func DegreePassParallel(src graph.EdgeStream, opts shard.Options) (deg []int32, m int64, err error) {
	return DegreePass(src)
}
