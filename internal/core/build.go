package core

import (
	"hep/internal/graph"
	"hep/internal/shard"
)

// BuildCSRSharded builds the pruned CSR of graph.BuildCSR; opts is ignored.
//
// Deprecated: the CSR build is single-goroutine (a batch-parallel build ran
// 2–3× slower per edge on two cores). Call graph.BuildCSR.
func BuildCSRSharded(src graph.EdgeStream, tau float64, store graph.H2HStore, opts shard.Options) (*graph.CSR, error) {
	return graph.BuildCSR(src, tau, store)
}
