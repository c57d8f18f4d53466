package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// loadBounds reads the end-to-end bounds from BENCHMARK.json: the given
// path, or the file beside or above the working directory.
func loadBounds(path string) (map[string]metricFile, string, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var lastErr error
	for _, p := range candidates {
		buf, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(buf, &f); err != nil {
			return nil, p, fmt.Errorf("%s: %w", p, err)
		}
		out := make(map[string]metricFile)
		for _, m := range f.EndToEnd {
			out[m.Name] = m
		}
		return out, p, nil
	}
	return nil, "", fmt.Errorf("no BENCHMARK.json: %w", lastErr)
}

func readResultFile(path string) (resultFile, error) {
	var r resultFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges a metric's new median against its old one. worse means
// worse by more than the bound; a spread wider than the bound on either
// side means the runs cannot tell, which is unresolved, not unchanged.
func verdict(old, new series, bound float64) (change float64, v string) {
	if old.Median == 0 {
		return 0, "unresolved"
	}
	// change > 0 is always "got worse".
	change = (new.Median - old.Median) / old.Median
	if old.Better == "higher" {
		change = -change
	}
	switch {
	case max(old.Spread, new.Spread) > bound:
		return change, "unresolved"
	case change > bound:
		return change, "worse"
	default:
		return change, "ok"
	}
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change, the bound and the verdict. It returns non-zero on any worse.
func compareFiles(args []string, specPath string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "benchmark: -compare needs two result files: old.json new.json")
		return 2
	}
	bounds, boundsFrom, err := loadBounds(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	old, err := readResultFile(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	new, err := readResultFile(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "old: %s  commit %s  %d CPUs  %s  %v s x %d runs\n", args[0], old.Env.Commit, old.Env.NumCPU, old.Env.GoVersion, old.Env.Seconds, old.Env.Runs)
	fmt.Fprintf(stdout, "new: %s  commit %s  %d CPUs  %s  %v s x %d runs\n", args[1], new.Env.Commit, new.Env.NumCPU, new.Env.GoVersion, new.Env.Seconds, new.Env.Runs)
	if old.Env.NumCPU != new.Env.NumCPU || old.Env.GOMAXPROCS != new.Env.GOMAXPROCS || old.Env.Seconds != new.Env.Seconds {
		fmt.Fprintln(stdout, "WARNING: the two files were not measured under the same conditions")
	}
	fmt.Fprintf(stdout, "bounds from %s; change > 0 means worse\n\n", boundsFrom)
	fmt.Fprintf(stdout, "%-15s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	newByName := make(map[string]workloadResult)
	for _, w := range new.Workloads {
		newByName[w.Name] = w
	}
	worse := 0
	for _, ow := range old.Workloads {
		nw, ok := newByName[ow.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-15s missing from %s\n", ow.Name, args[1])
			worse++
			continue
		}
		for _, def := range endToEnd {
			b, ok := bounds[def.Name]
			if !ok {
				continue
			}
			o, n := ow.EndToEnd[def.Name], nw.EndToEnd[def.Name]
			change, v := verdict(o, n, b.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(stdout, "%-15s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				ow.Name, def.Name, o.Median, n.Median, 100*change, 100*b.Bound, v)
		}
		if !nw.Correct {
			fmt.Fprintf(stdout, "%-15s correctness check failed in %s\n", ow.Name, args[1])
			worse++
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "\n%d worse\n", worse)
		return 1
	}
	fmt.Fprintln(stdout, "\nno metric is worse by more than its bound")
	return 0
}
