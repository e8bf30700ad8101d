package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"hep/internal/shard"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// childTimeout bounds one child process; a hung run is killed and counted
// as failed rather than stalling the benchmark.
const childTimeout = 150 * time.Second

// options are the command-line knobs of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	dir      string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (required)")
	fs.Int64Var(&o.seed, "seed", 0, "graph seed offset; 0 reproduces the gen.Datasets registry graph")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to repeat timed runs")
	fs.IntVar(&trace, "trace", 0, "1: report the per-layer metrics of a traced run instead of the end-to-end ones")
	fs.Float64Var(&o.scale, "scale", 1, "multiplier on the workload's graph scale (tests use tiny graphs)")
	fs.StringVar(&o.dir, "dir", ".bench_build/runs", "directory for generated graphs and spill files")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 || o.scale <= 0 {
		return o, errors.New("-seconds and -scale must be positive")
	}
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	res, err := run(o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "perfbench: a correctness check failed")
		return 1
	}
	return 0
}

// run generates the workload's graph, verifies one untimed run, repeats
// timed child runs for o.seconds and, with o.trace, adds the traced run.
func run(o options, stdout, stderr io.Writer) (result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	path := filepath.Join(dir, "graph.bin")
	n, m, err := w.generate(path, o.scale, o.seed)
	if err != nil {
		return result{}, fmt.Errorf("generate: %w", err)
	}
	workers := shard.Options{}.Resolve()
	var budget int64
	if w.budget != nil {
		if budget, err = w.budget(path, m, workers); err != nil {
			return result{}, fmt.Errorf("budget: %w", err)
		}
	}
	spec := childSpec{Workload: w.name, In: path, M: m, Budget: budget}
	repro := map[string]any{
		"workload": w.name, "stand_in": w.dataset, "scale": w.scale * o.scale,
		"seed": o.seed, "graph_seed": w.regSeed + o.seed, "n": n, "m": m,
		"algorithm": w.algo, "k": w.k, "refine": w.refine, "budget_bytes": budget,
		"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "workers": workers, "vcs_revision": vcsRevision(),
	}

	// One untimed, fully verified run first; it also warms the page cache.
	spec.Mode = modeVerify
	ver, err := runChild(spec, stderr)
	correct := err == nil
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: verification: %v\n", err)
	}
	repro["tau"], repro["buffer_edges"] = ver.Tau, ver.Buffer
	if ver.Buffer > 0 {
		repro["buffer_fills"] = (m + int64(ver.Buffer) - 1) / int64(ver.Buffer)
	}
	reproLine, _ := json.Marshal(repro)
	fmt.Fprintf(stdout, "repro %s\n", reproLine)

	spec.Mode = modeTimed
	var runs []runResult
	attempted, failed := 0, 0
	start := time.Now()
	for attempted == 0 || time.Since(start).Seconds() < o.seconds {
		attempted++
		r, err := runChild(spec, stderr)
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "perfbench: run %d: %v\n", attempted, err)
			continue
		}
		runs = append(runs, r)
		fmt.Fprintf(stdout, "run %d partition_s=%.4f setup_s=%.6f peak_rss_mb=%.1f rf=%.4f balance=%.4f\n",
			attempted, r.PartitionS, median(r.SetupS), float64(r.PeakRSSKB)/1024, r.RF, r.Balance)
	}
	res := result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if len(runs) == 0 {
		return res, nil
	}
	partitionS := median(collect(runs, func(r runResult) float64 { return r.PartitionS }))
	if !o.trace {
		var setups []float64
		for _, r := range runs {
			setups = append(setups, r.SetupS...)
		}
		res.Metrics["partition_s"] = metric{partitionS, "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(collect(runs, func(r runResult) float64 { return float64(r.PeakRSSKB) / 1024 })), "MiB"}
		res.Metrics["rf"] = metric{median(collect(runs, func(r runResult) float64 { return r.RF })), "replicas/vertex"}
		res.Metrics["balance"] = metric{median(collect(runs, func(r runResult) float64 { return r.Balance })), "ratio"}
		return res, nil
	}

	spec.Mode = modeTrace
	tr, err := runChild(spec, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: traced run: %v\n", err)
		res.Correct = false
		return res, nil
	}
	tr.Layers["trace.coverage"] = tr.LayerS / partitionS
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{tr.Layers[lm.name], lm.unit}
	}
	return res, nil
}

// runChild runs one child process and decodes its result line. A child
// that exits non-zero, prints no result or reports an error is a failed run.
func runChild(spec childSpec, stderr io.Writer) (runResult, error) {
	arg, err := json.Marshal(spec)
	if err != nil {
		return runResult{}, err
	}
	self, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, childArg, string(arg))
	// Spill files (HEP's E_h2h run) go to the temporary directory; keep
	// them beside the input, inside the run's directory.
	cmd.Env = append(os.Environ(), "TMPDIR="+filepath.Dir(spec.In))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, fmt.Errorf("%s child: %w", spec.Mode, err)
	}
	var r runResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return runResult{}, fmt.Errorf("%s child: bad result %q: %w", spec.Mode, out.String(), err)
	}
	if r.Err != "" {
		return r, fmt.Errorf("%s child: %s", spec.Mode, r.Err)
	}
	return r, nil
}

func collect(runs []runResult, f func(runResult) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// vcsRevision is the commit the binary was built from, when the build
// carried version-control stamping.
func vcsRevision() string {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	return rev + modified
}
