// Command benchmark is evsdb's yardstick: four workloads, end-to-end
// metrics measured with nothing of the benchmark's between the layers, and
// a traced run that splits a commit at the layer boundaries visible from
// outside. See README.md.
//
//	benchmark -workload strict_write -seed 1 -seconds 20 -trace 0   one run, one JSON line
//	benchmark -runs 5 -out result.json                            every workload, in child processes
//	benchmark -compare a.json b.json                              judge b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// hardLimit ends a run that neither finished nor failed: a deadlock inside
// the program under test must not outlive the driver's patience.
const hardLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// measured is one metric in a run's result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run one workload in this process: "+workloadNames())
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, decorators absent; 1: per-layer metrics from a traced run and the probes")
		traceOut = fs.String("trace-out", "", "with -trace 1: write the spans here as JSON lines")
		detailTo = fs.String("detail", "", "with -workload: also write the run's parameters and sample counts here")
		quick    = fs.Bool("quick", false, "smoke: every workload for about a second, correctness checks on")
		runs     = fs.Int("runs", 1, "full run: end-to-end runs per workload, each with its own seed")
		out      = fs.String("out", "", "full run: write the result file here")
		compare  = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		specPath = fs.String("spec", "", "BENCHMARK.json to take bounds from (default: ./ or ../)")
		print    = fs.Bool("print-spec", false, "print BENCHMARK.json as this program defines it")
		inject   = fs.String("inject", "", "fail on purpose, to test the checker: lying-sync | diverge | stuck-heal")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *print:
		return printSpec(stdout)
	case *compare:
		return compareFiles(fs.Args(), *specPath, stdout, stderr)
	case *workload != "":
		s, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *workload, workloadNames())
			return 2
		}
		s.inject = *inject
		return runOne(s, *seed, *seconds, *trace != 0, *traceOut, *detailTo, stdout, stderr)
	default:
		if *quick {
			*seconds = quickSeconds
		}
		return runAll(*seed, *seconds, *runs, *out, *quick, stdout, stderr)
	}
}

// runOne measures one workload in this process and prints its result line.
func runOne(s spec, seed int64, seconds float64, traced bool, traceOut, detailTo string, stdout, stderr io.Writer) int {
	watchdog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(stderr, "benchmark: %s: still running after %v, giving up\n", s.Name, hardLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	var (
		v    values
		d    *detail
		err  error
		defs = endToEnd
	)
	if traced {
		defs = perLayer
		v, d, err = measureTraced(s, seed, seconds, fullProbes, traceOut)
	} else {
		v, d, err = measureEndToEnd(s, seed, seconds)
	}
	if err != nil {
		d.Violation = err.Error()
		fmt.Fprintf(stderr, "benchmark: FAILED: %v\n", err)
	}
	if detailTo != "" {
		if werr := writeJSON(detailTo, struct {
			*detail
			All values `json:"all_metrics"`
		}{d, v}); werr != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", werr)
			return 1
		}
	}
	if err != nil {
		return 1
	}
	line := resultLine{Correct: d.Correct, Attempted: max(d.Attempted, 1), Failed: d.Failed, Metrics: map[string]measured{}}
	for _, def := range defs {
		line.Metrics[def.Name] = measured{Value: v[def.Name], Unit: def.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", buf)
	return 0
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
