package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runReport runs each workload runs times on consecutive seeds, each run
// a child process of this binary, and prints every metric with its unit,
// run count, median, quartiles and spread (quartile distance over the
// median, the statistic the benchmark's bounds apply to). dirs are the
// directory flags every child run receives.
func runReport(names []string, runs int, seed int64, seconds, trace int, dirs []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs := endToEndMetrics
	if trace == 1 {
		defs = perLayerMetrics
	}
	failed := false
	for _, name := range names {
		if _, ok := workloads[name]; !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		values := map[string][]float64{}
		var attempted []string
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			args := append([]string{
				"--workload", name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace),
			}, dirs...)
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: bad result line: %w", name, s, err)
			}
			if !res.Correct || res.Failed > 0 {
				failed = true
				fmt.Printf("%s seed %d: INCORRECT (%d of %d jobs failed)\n", name, s, res.Failed, res.Attempted)
			}
			attempted = append(attempted, strconv.Itoa(res.Attempted))
			for _, d := range defs {
				values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
			}
		}
		fmt.Printf("\n%s: %d runs, seeds %d..%d, jobs per run %s\n", name, runs, seed, seed+int64(runs)-1, strings.Join(attempted, ","))
		fmt.Printf("  %-28s %-8s %4s %14s %14s %14s %8s\n", "metric", "unit", "n", "median", "q1", "q3", "spread")
		for _, d := range defs {
			v := values[d.name]
			q1, q2, q3 := quartiles(v)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			fmt.Printf("  %-28s %-8s %4d %14.6g %14.6g %14.6g %8.4f\n", d.name, d.unit, len(v), q2, q1, q3, spread)
		}
	}
	if failed {
		return fmt.Errorf("some runs were incorrect")
	}
	return nil
}
