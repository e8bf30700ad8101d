// Command perfbench is the repository's benchmark: it partitions generated
// graphs through the same public path hep-partition uses (hep.OpenChunked
// or hep.OpenMmap, hep.FitBudget, hep.PartitionStream), checks every output,
// and prints each metric by name and unit. It is a module of its own so the
// root module's build and tests never depend on it. Run it from the
// repository root:
//
//	bash perfbench/run.sh --workload hep-inmem --seed 0 --seconds 10 --trace 0
//
// run.sh builds the binary into .bench_build (Go build cache included) and
// runs it; BENCHMARK.json at the root names the workloads and metrics.
//
// # Load
//
// Each run is a closed loop: one partition at a time, each in a fresh child
// process, back to back until --seconds have passed. Config.Workers and
// RefineWorkers stay 0, which resolves to GOMAXPROCS — the parallelism
// every hep-partition user gets. The report records GOMAXPROCS.
//
// The graph is generated before timing starts, from the generator family
// and parameters of a gen.Datasets stand-in with seed registry seed +
// --seed (so --seed 0 reproduces the registry graph), and written as a
// binary edge file. The children receive only that file and the knobs the
// parent derived from it (the memory budget).
//
// # Workloads
//
//   - hep-inmem: TW stand-in at scale 4 (2.48M edges), HEP with τ=10, k=32,
//     read through hep.OpenChunked. The paper's headline setting. The CSR
//     build and NE++ carry the time; under 1% of the edges are
//     high-degree-to-high-degree (E_h2h). Changes to the build or NE++ show
//     here; the scorer, spill, expansion and refinement should not move it.
//   - hep-lowmem: FR stand-in at scale 8 (3.02M edges, heavy-tailed
//     degrees), HEP at k=128 under a MemBudget midway between the
//     hep.EstimateMemory footprints for τ=1 and τ=2, so FitBudget picks τ=1.
//     The paper's memory-constrained recipe: about 40% of the edges spill to
//     the varint run file and are streamed by HDRF. The only workload where
//     the scorer and the spill carry real weight.
//   - buffered-ooc: OK stand-in at scale 4 (2.2M edges), AlgoBuffered at
//     k=32, read through hep.OpenMmap, with a budget FitBudget turns into a
//     buffer of ⌈m/8⌉ edges (8 fills). Region expansion dominates, the
//     degree pass is the rest; no CSR build, no NE++. It reads the input
//     through zero-copy mmap slabs instead of the chunked prefetch reader.
//   - hep-refine: LJ stand-in at scale 8 (2.83M edges), HEP with τ=10, k=32
//     plus Refine: RefineMoves. The only workload that runs
//     internal/refine; the rest of its time is build and NE++.
//
// # End-to-end metrics (--trace 0)
//
//   - partition_s: wall time of hep.PartitionStream, median over the runs.
//   - setup_s: opening the input (with vertex discovery where the
//     algorithm needs it) plus hep.FitBudget, repeated within every run;
//     median over all repetitions.
//   - peak_rss_mb: VmHWM of the child process that ran one partition, read
//     when PartitionStream returns; median over the runs.
//   - rf: replication factor; median over the runs.
//   - balance: max load divided by m/k; median over the runs.
//
// The result line's attempted and failed fields carry the failure rate:
// runs that errored or failed a check, out of the runs attempted.
//
// # Correctness
//
// Every timed run checks that PartitionStream returned no error, that the
// partition counts sum to m, that the max load is within the algorithm's
// bound (⌈α·m/k⌉ with α = 1 for HEP, 1.05 for Buffered and the refinement
// guard, plus the parallel engine's staleness slack), and that every
// non-isolated vertex is covered. Each invocation also runs one untimed
// verification that collects the assignment with part.Collect and applies
// parttest.CheckExactlyOnce, CheckReplicas and CheckBalance. The command
// exits non-zero if any check fails.
//
// # Per-layer metrics (--trace 1)
//
// After the untimed-median runs, one traced child calls each layer's public
// function from outside, in pipeline order, and times it. Each metric is
// named <module>.<metric>; .w1 is the same layer at one worker. A layer the
// workload does not run reports 0. The list gives, for each metric, the
// end-to-end metric and workload it should move:
//
//   - ooc.ingest_ns_per_edge: one full Chunks scan through the workload's
//     reader, reading every edge. partition_s on buffered-ooc; setup_s
//     everywhere.
//   - ooc.degree_ns_per_edge and .w1: ooc.DegreePassParallel at W and
//     ooc.DegreePass. partition_s on buffered-ooc.
//   - memmodel.fit_s: the hep.FitBudget call. setup_s on hep-lowmem and
//     buffered-ooc.
//   - core.build_ns_per_edge, .w1 and core.build_alloc_bytes_per_edge:
//     core.BuildCSRSharded with the varint spill store. partition_s and
//     peak_rss_mb on the three HEP workloads; 0 on buffered-ooc.
//   - core.nepp_ns_per_edge (per edge NE++ places) and core.nepp_edges:
//     core.NewNEPP(...).Run(). partition_s on hep-inmem most, rf on the HEP
//     workloads.
//   - ooc.spill_bytes_per_edge and ooc.spill_read_ns_per_edge: the
//     VarintH2H size and one full scan of it, per spilled edge. partition_s
//     on hep-lowmem.
//   - stream.score_ns_per_edge, .w1 and stream.score_edges:
//     stream.RunHDRFParallel or RunHDRF over E_h2h, warm from the NE++
//     result. partition_s and rf on hep-lowmem; no move on hep-inmem.
//   - ooc.expand_ns_per_edge and .w1, ooc.regions, ooc.fallback_edges:
//     ooc.Buffered.Partition minus the degree pass timed alone.
//     partition_s, rf and peak_rss_mb on buffered-ooc only.
//   - refine.ns_per_edge, .w1, refine.rf_gain, refine.gain_recomputes and
//     refine.useful_ratio (Applied / GainRecomputes): refine.Run on the
//     captured HEP assignment. partition_s, rf and balance on hep-refine
//     only.
//   - shard.cas_retries and shard.reorder_stall_ms: the hep.NewObs counters
//     and the reorder-stall histogram, attached to the W-worker layer calls
//     of the traced run only. Waiting at W ≥ 2 on hep-lowmem and
//     buffered-ooc.
//   - trace.coverage: the W-worker layer times that make up the pipeline
//     (build + NE++ + score + refine for HEP, the whole Buffered run for
//     buffered-ooc) divided by the untraced median partition_s. The gap is
//     the traced run's overhead plus glue it does not time.
//
// # Output
//
// Standard output holds a repro line (Go version, GOMAXPROCS, nproc, VCS
// revision, seed, the graph's n and m, and the τ and buffer FitBudget
// chose), one line per timed run, and as its last line one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"partition_s": {"value": 1.51, "unit": "s"}, ...}}
package main
