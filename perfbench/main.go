// Command perfbench is the repository's campaign benchmark. It runs the
// identification campaign (flow.RunCampaign) at the default backtrack limit
// on one of two workloads, checks every campaign's classification, and
// prints one JSON result line:
//
//	perfbench --workload mission-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it times campaigns with telemetry off and reports the
// end-to-end metrics; with --trace 1 it alternates untraced and traced
// campaigns and reports the per-layer metrics of the traced ones, plus the
// tracing overhead. --report N runs every workload N times in child processes
// and prints each end-to-end metric's median, quartiles and spread next to
// its bound in BENCHMARK.json. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	report   int
	dir      string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (mission-sweep, pattern-import)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced campaigns")
	flag.IntVar(&cfg.report, "report", 0, "steadiness mode: run each workload (or --workload) this many times and tabulate")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "scratch directory for journals and trace files")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.report > 0 {
		return steadiness(cfg)
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", cfg.trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.dir, 0o777); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	hostLine, err := json.Marshal(hostRecord())
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostLine)

	b, err := newRunner(w, cfg.seed, dir)
	if err != nil {
		return err
	}
	var res result
	if cfg.trace == 1 {
		res, err = b.runTraced(cfg.seconds)
		if err == nil {
			err = b.writeTraces(filepath.Join(cfg.dir,
				fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.seed)))
		}
	} else {
		res, err = b.runUntraced(cfg.seconds)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
