package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hep"
	"hep/internal/gen"
	"hep/internal/part"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// benchmark re-executes itself as a child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// smokeScale shrinks every workload graph to a few thousand edges.
const smokeScale = "0.02"

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string, names []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	return endToEnd, perLayer, names
}

func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--seconds", "0.3", "--scale", smokeScale, "--dir", t.TempDir())
	if code := benchMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("perfbench %v: exit %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !strings.HasPrefix(lines[0], "repro {") {
		t.Errorf("first line %q is not the repro block", lines[0])
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result %+v: want correct with no failures", res)
	}
	return res
}

// checkMetrics asserts res reports exactly the declared metrics with their
// declared units.
func checkMetrics(t *testing.T, res result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		got, ok := res.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if got.Unit != unit {
			t.Errorf("metric %s: unit %q, want %q", name, got.Unit, unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced, on
// two seeds.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer, names := declared(t)
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !slices.Equal(names, have) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []string{"0", "7"} {
				res := runBench(t, "--workload", name, "--seed", seed, "--trace", "0")
				checkMetrics(t, res, endToEnd)
				for metric, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("seed %s: %s = %v, want > 0", seed, metric, v.Value)
					}
				}
			}
			res := runBench(t, "--workload", name, "--seed", "3", "--trace", "1")
			checkMetrics(t, res, perLayer)
			if c := res.Metrics["trace.coverage"].Value; c <= 0 {
				t.Errorf("trace.coverage = %v, want > 0", c)
			}
		})
	}
}

// TestSeedZeroIsRegistryGraph pins the workload generators to the
// gen.Datasets stand-ins they copy.
func TestSeedZeroIsRegistryGraph(t *testing.T) {
	for _, w := range workloads {
		got := w.build(0.02, w.regSeed)
		want := gen.MustDataset(w.dataset).Build(0.02)
		if !slices.Equal(got.E, want.E) || got.NumVertices() != want.NumVertices() {
			t.Errorf("%s: seed 0 graph differs from the %s registry graph", w.name, w.dataset)
		}
	}
}

// TestCorruptedAssignmentFailsVerification makes sure the checks can fail:
// a clean run passes; a moved edge, a lost edge, an uncovered vertex or an
// overloaded partition does not.
func TestCorruptedAssignmentFailsVerification(t *testing.T) {
	w, err := findWorkload("hep-inmem")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.bin")
	_, m, err := w.generate(path, 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (hep.EdgeStream, *part.Result, *part.Collect) {
		src, err := hep.OpenChunked(path, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		col := &part.Collect{}
		cfg := w.config(0)
		cfg.Sink = col
		res, err := hep.PartitionStream(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return src, res, col
	}

	src, res, col := run()
	if err := checkRun(w, path, m, res); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if err := verifyFull(w, src, res, col); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	// Move one collected edge to another partition: the sink no longer
	// agrees with the result.
	col.Edges[0].P = (col.Edges[0].P + 1) % res.K
	if err := verifyFull(w, src, res, col); err == nil {
		t.Error("verification passed with a moved edge")
	}

	// Drop one edge from the counts: Σ Counts ≠ m.
	_, res, _ = run()
	res.AddLoad(0, -1)
	if err := checkRun(w, path, m, res); err == nil {
		t.Error("check passed with a lost edge")
	}

	// Leave one vertex's edges out of the replica table, loads kept whole:
	// that vertex is covered by no partition.
	_, res, col = run()
	v := col.Edges[0].E.U
	uncovered := part.NewResult(res.N, res.K)
	for _, te := range col.Edges {
		if te.E.U == v || te.E.V == v {
			uncovered.AddLoad(te.P, 1)
			uncovered.M++
			continue
		}
		uncovered.Assign(te.E.U, te.E.V, te.P)
	}
	if err := checkRun(w, path, m, uncovered); err == nil {
		t.Error("check passed with an uncovered vertex")
	}

	// Pile every edge onto one partition: the max load leaves its bound.
	_, res, _ = run()
	for p := 1; p < res.K; p++ {
		c := res.Counts[p]
		res.AddLoad(0, c)
		res.AddLoad(p, -c)
	}
	if err := checkRun(w, path, m, res); err == nil {
		t.Error("check passed with an overloaded partition")
	}
}
