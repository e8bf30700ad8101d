// Command hep-bench regenerates the paper's evaluation tables and figures
// (§5) from the synthetic dataset stand-ins.
//
// Usage:
//
//	hep-bench                     # everything at the default scale
//	hep-bench -exp fig8 -scale 1  # one experiment
//	hep-bench -exp table4 -datasets OK,IT,TW
//	hep-bench -scale 1 -json BENCH.json   # machine-readable tables (hep-bench/v1)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hep/internal/expt"
	"hep/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: fig2|fig5|fig7|fig8|fig9|table2|table3|table4|table5|table6|ooc|state|shard|expand|ingest|refine|all")
		scale    = flag.Float64("scale", 0.25, "dataset scale factor")
		datasets = flag.String("datasets", "", "comma-separated dataset names (default per experiment)")
		ks       = flag.String("k", "", "comma-separated partition counts (default per experiment)")
		workers  = flag.String("workers", "", "comma-separated worker counts for -exp shard/expand/ingest (default per experiment)")
		skipSlow = flag.Bool("skipslow", true, "skip partitioners the paper marks OOT on large graphs")
		jsonOut  = flag.String("json", "", "additionally write every table's rows as machine-readable JSON (hep-bench/v1) to this file")
	)
	flag.Parse()

	cfg := expt.Config{Scale: *scale, SkipSlow: *skipSlow, Out: os.Stdout}
	if *jsonOut != "" {
		cfg.Report = obs.NewBenchReport(map[string]any{
			"experiment": *exp,
			"scale":      *scale,
			"skipslow":   *skipSlow,
		})
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	intList := func(flagName, val string, dst *[]int) {
		for _, s := range strings.Split(val, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "hep-bench: bad %s value %q\n", flagName, s)
				os.Exit(2)
			}
			*dst = append(*dst, v)
		}
	}
	if *ks != "" {
		intList("-k", *ks, &cfg.Ks)
	}
	if *workers != "" {
		intList("-workers", *workers, &cfg.Workers)
	}

	runners := map[string]func(expt.Config) error{
		"fig2":   func(c expt.Config) error { _, err := expt.Figure2(c); return err },
		"fig5":   func(c expt.Config) error { _, err := expt.Figure5(c); return err },
		"fig7":   func(c expt.Config) error { _, err := expt.Figure7(c); return err },
		"fig8":   func(c expt.Config) error { _, err := expt.Figure8(c); return err },
		"fig9":   func(c expt.Config) error { _, err := expt.Figure9(c); return err },
		"table2": func(c expt.Config) error { _, err := expt.Table2(c); return err },
		"table3": func(c expt.Config) error { _, err := expt.Table3(c); return err },
		"table4": func(c expt.Config) error { _, err := expt.Table4(c); return err },
		"table5": func(c expt.Config) error { _, err := expt.Table5(c); return err },
		"table6": func(c expt.Config) error { _, err := expt.Table6(c); return err },
		"ooc":    func(c expt.Config) error { _, err := expt.TableBuffered(c); return err },
		"state":  func(c expt.Config) error { _, err := expt.TableState(c); return err },
		"shard":  func(c expt.Config) error { _, err := expt.TableShard(c); return err },
		"expand": func(c expt.Config) error { _, err := expt.TableExpand(c); return err },
		"ingest": func(c expt.Config) error { _, err := expt.TableIngest(c); return err },
		"refine": expt.TableRefine,
	}
	order := []string{"table3", "fig2", "fig5", "fig7", "fig8", "fig9", "table2", "table4", "table5", "table6", "ooc", "state", "shard", "expand", "ingest", "refine"}

	if *exp == "all" {
		for _, name := range order {
			if err := runners[name](cfg); err != nil {
				fmt.Fprintf(os.Stderr, "hep-bench: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		writeReport(cfg.Report, *jsonOut)
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "hep-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hep-bench: %v\n", err)
		os.Exit(1)
	}
	writeReport(cfg.Report, *jsonOut)
}

// writeReport writes the collected JSON tables, if -json asked for them.
func writeReport(r *obs.BenchReport, path string) {
	if r == nil || path == "" {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		err = r.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hep-bench: -json: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hep-bench: JSON tables written to %s\n", path)
}
