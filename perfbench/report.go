package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the steadiness report reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs each workload cfg.report times in child processes — seeds
// cfg.seed, cfg.seed+1, ..., the same invocation a single run uses — and
// prints, per workload and
// end-to-end metric, the median, the quartiles (Python's
// statistics.quantiles(n=4) exclusive method) and the quartile spread as a
// share of the median, next to the metric's bound from BENCHMARK.json.
func steadiness(cfg config) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	hostLine, err := json.Marshal(hostRecord())
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", hostLine)
	worst := 0.0
	for _, name := range names {
		var runs []result
		attempted, failed := 0, 0
		for seed := cfg.seed; seed < cfg.seed+int64(cfg.report); seed++ {
			res, err := runChild(self, name, seed, cfg)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			attempted += res.Attempted
			failed += res.Failed
			runs = append(runs, res)
		}
		fmt.Printf("\n%s: %d runs, %d campaigns attempted, %d failed\n", name, len(runs), attempted, failed)
		fmt.Printf("  %-14s %-5s %12s %12s %12s %8s %6s %s\n",
			"metric", "unit", "median", "q1", "q3", "spread", "bound", "")
		for _, m := range spec.EndToEnd {
			vs := make([]float64, 0, len(runs))
			for _, r := range runs {
				vs = append(vs, r.Metrics[m.Name].Value)
			}
			med := median(append([]float64(nil), vs...))
			q1, q3 := quartiles(vs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "TOO NOISY"
			case spread > m.Bound/3:
				verdict = "over a third of bound"
			}
			if m.Bound > 0 && spread/m.Bound > worst {
				worst = spread / m.Bound
			}
			fmt.Printf("  %-14s %-5s %12.6g %12.6g %12.6g %8.4f %6.3g %s\n",
				m.Name, m.Unit, med, q1, q3, spread, m.Bound, verdict)
		}
	}
	fmt.Printf("\nworst spread: %.2f of its bound\n", worst)
	return nil
}

// runChild runs one benchmark invocation and parses its result line.
func runChild(self, workload string, seed int64, cfg config) (result, error) {
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64),
		"--trace", "0",
		"--dir", cfg.dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return result{}, fmt.Errorf("result line %q: %w", last, err)
	}
	return res, nil
}

// quartiles returns the first and third quartiles of vs by the exclusive
// method of Python's statistics.quantiles(vs, n=4).
func quartiles(vs []float64) (q1, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	if len(d) < 2 {
		if len(d) == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	const n = 4
	m := len(d) + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(3)
}
