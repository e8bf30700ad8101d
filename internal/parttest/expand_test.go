package parttest

import (
	"fmt"
	"testing"

	"hep/internal/gen"
	"hep/internal/ooc"
)

// seqExpansionRef is the replication factor and balance of the retired
// sequential region expander (BufferEdges 1<<15, scale 0.1), recorded at
// full precision before it was deleted. It stays the reference of the
// quality pin so the pin keeps checking what it always checked.
var seqExpansionRef = map[string]map[int][2]float64{
	"OK": {32: {4.164727355692448, 1.0000586613480378}, 128: {5.725074150125485, 1.00052795213234}},
	"TW": {32: {4.207640285139828, 1.0001740809318078}, 128: {5.815938585267776, 1.0006804981879758}},
	"LJ": {32: {2.3951310861423223, 1.00008585901949}, 128: {3.1217228464419478, 1.00008585901949}},
}

// TestParallelExpansionQualityPin pins Buffered's batches, partitioned by
// the NE++ kernel, to the retired sequential region expander: at
// k ∈ {32, 128} on the OK, TW and LJ stand-ins, every Workers must stay
// within 2% of the recorded replication factor and balance and assign every
// edge. The kernel runs on one goroutine at every Workers, so the runs are
// deterministic unless the parallel fallback fires.
func TestParallelExpansionQualityPin(t *testing.T) {
	for _, name := range []string{"OK", "TW", "LJ"} {
		g := gen.MustDataset(name).Build(0.1)
		for _, k := range []int{32, 128} {
			ref := seqExpansionRef[name][k]
			for _, workers := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/k=%d/W=%d", name, k, workers), func(t *testing.T) {
					algo := &ooc.Buffered{BufferEdges: 1 << 15, Workers: workers}
					res, err := algo.Partition(g, k)
					if err != nil {
						t.Fatal(err)
					}
					if res.M != g.NumEdges() {
						t.Fatalf("assigned %d of %d edges", res.M, g.NumEdges())
					}
					rf, bal := res.ReplicationFactor(), res.Balance()
					t.Logf("RF %.4f (%+.2f%%), balance %.4f, fallback %d edges",
						rf, 100*(rf/ref[0]-1), bal, algo.LastStats.FallbackEdges)
					if rf > ref[0]*1.02 {
						t.Errorf("RF %.4f > sequential %.4f + 2%%", rf, ref[0])
					}
					if bal > ref[1]*1.02 {
						t.Errorf("balance %.4f > sequential %.4f + 2%%", bal, ref[1])
					}
				})
			}
		}
	}
}

// TestParallelExpansionExactlyOnceConformance runs the repository-wide
// validity checks over Buffered at Workers 1 and 2: every edge assigned
// exactly once, replicas consistent, balance within the bound.
func TestParallelExpansionExactlyOnceConformance(t *testing.T) {
	g := gen.MustDataset("LJ").Build(0.1)
	for _, workers := range []int{1, 2} {
		algo := &ooc.Buffered{BufferEdges: 1 << 14, Workers: workers}
		res, err := RunAndCheck(algo, g, 32, 1.05, 2)
		if err != nil {
			t.Errorf("W=%d: %v", workers, err)
			continue
		}
		if res.M != g.NumEdges() {
			t.Errorf("W=%d: assigned %d of %d edges", workers, res.M, g.NumEdges())
		}
	}
}
