package expt

import (
	"time"

	"hep/internal/ooc"
)

// TableExpandRow is one (dataset, k, W) point of the parallel region
// expansion scaling table: wall-clock per edge of a full Buffered run with W
// expanders against the one-expander run, the quality the concurrency
// costs, and the observed expansion concurrency.
type TableExpandRow struct {
	Dataset   string
	K         int
	Workers   int // 1 = one expander, the deterministic case
	NsEdge    float64
	Speedup   float64 // W=1 ns/edge ÷ this row's ns/edge
	RF        float64
	Balance   float64
	Expanders int // peak concurrent expanders observed
}

// TableExpand measures the out-of-core engine's region expansion
// (internal/ooc expand_par) across worker counts on a power-law stand-in:
// Buffered wall-clock per edge, speedup over one expander (W=1), the
// replication-factor/balance drift of concurrent claiming, and the peak
// number of expanders in flight. README's "Parallel expansion" table comes
// from here (`hep-bench -exp expand -workers 1,2,4,8`). Like the other
// scaling tables, speedup tracks the cores actually available — on a
// single-core host the W > 1 rows only price the claim-array overhead.
func TableExpand(cfg Config) ([]TableExpandRow, error) {
	var rows []TableExpandRow
	for _, name := range cfg.datasets("TW") {
		g := cfg.build(name)
		m := g.NumEdges()
		buf := int(m / 4)
		if buf < 1<<14 {
			buf = 1 << 14
		}
		for _, k := range cfg.ks(32) {
			// The W=1 baseline always runs once per k, so every row's speedup
			// has a denominator even when -workers omits 1.
			seqAlgo := &ooc.Buffered{BufferEdges: buf, Workers: 1}
			start := time.Now()
			seqRes, err := seqAlgo.Partition(g, k)
			if err != nil {
				return nil, err
			}
			seqNs := float64(time.Since(start).Nanoseconds()) / float64(m)
			for _, w := range cfg.workers(1, 2, 4, 8) {
				res, ns, peak := seqRes, seqNs, seqAlgo.LastStats.PeakExpanders
				if w > 1 {
					algo := &ooc.Buffered{BufferEdges: buf, Workers: w, ParallelExpandMin: 1}
					start := time.Now()
					res, err = algo.Partition(g, k)
					if err != nil {
						return nil, err
					}
					ns = float64(time.Since(start).Nanoseconds()) / float64(m)
					peak = algo.LastStats.PeakExpanders
				}
				rows = append(rows, TableExpandRow{
					Dataset:   name,
					K:         k,
					Workers:   w,
					NsEdge:    ns,
					Speedup:   speedup(seqNs, ns),
					RF:        res.ReplicationFactor(),
					Balance:   res.Balance(),
					Expanders: peak,
				})
			}
		}
	}
	t := newTable(cfg.out(), "Parallel region expansion (Buffered, concurrent expanders)")
	t.row("graph", "k", "W", "ns/edge", "speedup", "RF", "balance", "peak expanders")
	for _, r := range rows {
		t.row(r.Dataset, r.K, r.Workers, r.NsEdge, r.Speedup, r.RF, r.Balance, r.Expanders)
	}
	t.flush()
	return rows, cfg.report("expand", rows)
}

func speedup(seqNs, ns float64) float64 {
	if ns <= 0 {
		return 0
	}
	return seqNs / ns
}
