package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hep"
	"hep/internal/graph"
	"hep/internal/ooc"
	"hep/internal/part"
	"hep/internal/parttest"
	"hep/internal/shard"
)

// childArg is the first argument that turns the binary into a child: one
// run per process, so peak RSS covers that run alone.
const childArg = "child"

// Child modes.
const (
	modeTimed  = "timed"  // setup + one PartitionStream, the four cheap checks
	modeVerify = "verify" // untimed run with part.Collect and the parttest checks
	modeTrace  = "trace"  // per-layer run (trace.go)
)

// childSpec is what the parent hands a child: the generated file and the
// knobs it derived from it. The child sees nothing of the generator.
type childSpec struct {
	Mode     string `json:"mode"`
	Workload string `json:"workload"`
	In       string `json:"in"`
	M        int64  `json:"m"`
	Budget   int64  `json:"budget"`
}

// runResult is what a child prints as its one line of standard output.
type runResult struct {
	SetupS     []float64          `json:"setup_s,omitempty"`
	PartitionS float64            `json:"partition_s"`
	PeakRSSKB  int64              `json:"peak_rss_kb"`
	RF         float64            `json:"rf"`
	Balance    float64            `json:"balance"`
	Tau        float64            `json:"tau"`
	Buffer     int                `json:"buffer"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	LayerS     float64            `json:"layer_s,omitempty"`
	Err        string             `json:"error,omitempty"`
}

func childMain(args []string) int {
	var spec childSpec
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "perfbench child: want one JSON spec argument")
		return 2
	}
	if err := json.Unmarshal([]byte(args[0]), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 2
	}
	w, err := findWorkload(spec.Workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 2
	}
	var out runResult
	switch spec.Mode {
	case modeTimed:
		out, err = timedRun(w, spec)
	case modeVerify:
		out, err = verifyRun(w, spec)
	case modeTrace:
		out, err = traceRun(w, spec)
	default:
		err = fmt.Errorf("unknown mode %q", spec.Mode)
	}
	if err != nil {
		out.Err = err.Error()
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return 1
	}
	return 0
}

// The set-up is repeated at least setupMinReps times and for at least
// setupMinTime (at most setupMaxReps times), so the median of a
// microsecond-scale set-up is still stable.
const (
	setupMinReps = 2
	setupMinTime = 250 * time.Millisecond
	setupMaxReps = 2000
)

// setup opens the input and resolves the budget, the way hep-partition
// does before partitioning. It repeats the pair (closing all but the last
// stream) and returns every repetition's wall time.
func setup(w *workload, spec childSpec) (hep.EdgeStream, func(), hep.Config, []float64, error) {
	var times []float64
	start := time.Now()
	for {
		t0 := time.Now()
		src, closeSrc, err := w.open(spec.In)
		if err != nil {
			return nil, nil, hep.Config{}, nil, err
		}
		cfg, err := hep.FitBudget(src, w.config(spec.Budget))
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			closeSrc()
			return nil, nil, hep.Config{}, nil, err
		}
		n := len(times)
		if n >= setupMaxReps || (n >= setupMinReps && time.Since(start) >= setupMinTime) {
			return src, closeSrc, cfg, times, nil
		}
		closeSrc()
	}
}

func timedRun(w *workload, spec childSpec) (runResult, error) {
	src, closeSrc, cfg, setupS, err := setup(w, spec)
	if err != nil {
		return runResult{}, err
	}
	defer closeSrc()
	out := runResult{SetupS: setupS, Tau: cfg.Tau, Buffer: cfg.Buffer}
	t0 := time.Now()
	res, err := hep.PartitionStream(src, cfg)
	out.PartitionS = time.Since(t0).Seconds()
	// Read the high-water mark before the checks allocate anything.
	out.PeakRSSKB = peakRSSKB()
	if err != nil {
		return out, err
	}
	if out.PeakRSSKB < 0 {
		return out, errNoProc
	}
	out.RF, out.Balance = res.ReplicationFactor(), balance(res, spec.M)
	return out, checkRun(w, spec.In, spec.M, res)
}

// balance is the max load divided by m/k.
func balance(res *part.Result, m int64) float64 {
	return float64(res.MaxLoad()) * float64(res.K) / float64(m)
}

// checkRun holds every timed run to four properties: Σ Counts = m, the max
// load within the algorithm's bound, and every non-isolated vertex of the
// input covered by some partition (the run itself returned no error).
func checkRun(w *workload, path string, m int64, res *part.Result) error {
	var sum int64
	for _, c := range res.Counts {
		sum += c
	}
	if sum != m || res.M != m {
		return fmt.Errorf("check: Σ counts = %d, M = %d, want m = %d", sum, res.M, m)
	}
	if bound := w.maxLoadBound(m, shard.Options{}.Resolve()); res.MaxLoad() > bound {
		return fmt.Errorf("check: max load %d above bound %d (m=%d k=%d)", res.MaxLoad(), bound, m, res.K)
	}
	src, err := hep.OpenChunked(path, -1, 0)
	if err != nil {
		return err
	}
	deg, _, err := ooc.DegreePass(src)
	if err != nil {
		return err
	}
	for v, d := range deg {
		if d == 0 {
			continue
		}
		if v >= res.N || res.Reps.Count(graph.V(v)) == 0 {
			return fmt.Errorf("check: vertex %d (degree %d) is in no partition", v, d)
		}
	}
	return nil
}

// verifyRun is the untimed full verification: the run's assignment is
// collected edge by edge and checked against the input for exactly-once
// placement, replica-table consistency and the balance bound.
func verifyRun(w *workload, spec childSpec) (runResult, error) {
	src, closeSrc, cfg, _, err := setup(w, spec)
	if err != nil {
		return runResult{}, err
	}
	defer closeSrc()
	col := &part.Collect{Edges: make([]part.TaggedEdge, 0, spec.M)}
	cfg.Sink = col
	res, err := hep.PartitionStream(src, cfg)
	if err != nil {
		return runResult{}, err
	}
	out := runResult{RF: res.ReplicationFactor(), Balance: balance(res, spec.M), Tau: cfg.Tau, Buffer: cfg.Buffer}
	if err := checkRun(w, spec.In, spec.M, res); err != nil {
		return out, err
	}
	return out, verifyFull(w, src, res, col)
}

// verifyFull runs the repository's partitioner conformance checks on a
// collected assignment.
func verifyFull(w *workload, src hep.EdgeStream, res *part.Result, col *part.Collect) error {
	if err := res.Validate(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := parttest.CheckExactlyOnce(src, res, col); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := parttest.CheckReplicas(res, col); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if err := parttest.CheckBalance(res, w.alpha(), staleSlack(shard.Options{}.Resolve())); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	return nil
}

// peakRSSKB is this process's resident-set high-water mark (VmHWM), or -1
// where /proc is unavailable.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return -1
			}
			return kb
		}
	}
	return -1
}

var errNoProc = errors.New("peak RSS unavailable (no /proc/self/status)")
