// Command evsbench regenerates the paper's evaluation (§ 7):
//
//	evsbench -exp fig5a     # throughput vs clients: engine / COReL / 2PC
//	evsbench -exp fig5b     # engine forced vs delayed writes
//	evsbench -exp latency   # single-client average latency, three systems
//	evsbench -exp batching  # action batching off vs on, plus codec allocs
//	evsbench -exp all       # everything
//
// The -sync flag sets the simulated forced-write latency (the knob that
// stands in for the 2001 testbed's disks). Absolute numbers differ from
// the paper; the ordering and ratios are the reproduction target.
//
// -json writes the batching experiment's results as a machine-readable
// file (the repo commits one as BENCH_batching.json), so perf changes
// have a comparable trajectory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"evsdb/internal/bench"
	"evsdb/internal/core"
	"evsdb/internal/evs"
	"evsdb/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "evsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp         = flag.String("exp", "all", "experiment: fig5a, fig5b, latency, batching, all")
		replicas    = flag.Int("replicas", 14, "number of replicas (paper: 14)")
		actions     = flag.Int("actions", 100, "actions per client per data point")
		syncLat     = flag.Duration("sync", 2*time.Millisecond, "simulated forced-write latency")
		clients     = flag.String("clients", "1,2,4,7,10,14", "client counts for throughput curves")
		jsonPath    = flag.String("json", "", "write batching results to this JSON file (e.g. BENCH_batching.json)")
		metricsPath = flag.String("metrics", "", "write replica 0's final /metrics exposition from the batching experiment to this file (validated against the in-repo parser)")
	)
	flag.Parse()

	var clientCounts []int
	for _, part := range strings.Split(*clients, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad -clients value %q: %w", part, err)
		}
		clientCounts = append(clientCounts, n)
	}

	switch *exp {
	case "fig5a":
		return fig5a(*replicas, clientCounts, *actions, *syncLat)
	case "fig5b":
		return fig5b(*replicas, clientCounts, *actions, *syncLat)
	case "latency":
		return latency(*replicas, *actions, *syncLat)
	case "costmodel":
		return costModel(*replicas, *actions, *syncLat)
	case "batching":
		return batching(*replicas, clientCounts, *actions, *syncLat, *jsonPath, *metricsPath)
	case "all":
		if err := fig5a(*replicas, clientCounts, *actions, *syncLat); err != nil {
			return err
		}
		if err := fig5b(*replicas, clientCounts, *actions, *syncLat); err != nil {
			return err
		}
		if err := latency(*replicas, *actions, *syncLat); err != nil {
			return err
		}
		if err := costModel(*replicas, *actions, *syncLat); err != nil {
			return err
		}
		return batching(*replicas, clientCounts, *actions, *syncLat, *jsonPath, *metricsPath)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}

// costModel prints the empirical per-action message and forced-write
// counts behind the paper's § 7 cost claims.
func costModel(replicas, actions int, syncLat time.Duration) error {
	fmt.Printf("== § 7 cost model: per-action messages and forced writes, %d replicas ==\n", replicas)
	rows, err := bench.CostModel(replicas, actions, syncLat)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
	fmt.Println()
	return nil
}

func fig5a(replicas int, clients []int, actions int, syncLat time.Duration) error {
	fmt.Printf("== Figure 5(a): throughput vs clients, %d replicas, forced writes (sync=%v) ==\n",
		replicas, syncLat)
	for _, sys := range []bench.System{bench.Engine, bench.COReL, bench.TwoPC} {
		results, err := bench.Series(sys, replicas, clients, actions, syncLat)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Println("  " + r.String())
		}
	}
	fmt.Println()
	return nil
}

func fig5b(replicas int, clients []int, actions int, syncLat time.Duration) error {
	fmt.Printf("== Figure 5(b): engine delayed vs forced writes, %d replicas ==\n", replicas)
	for _, sys := range []bench.System{bench.EngineDelayed, bench.Engine} {
		results, err := bench.Series(sys, replicas, clients, actions, syncLat)
		if err != nil {
			return err
		}
		for _, r := range results {
			fmt.Println("  " + r.String())
		}
	}
	fmt.Println()
	return nil
}

// batchRun is one row of the batching experiment's JSON output.
type batchRun struct {
	Mode       string  `json:"mode"` // "unbatched" | "batched"
	Clients    int     `json:"clients"`
	Actions    int     `json:"actions"`
	Throughput float64 `json:"actionsPerSec"`
	AvgMs      float64 `json:"avgLatencyMs"`
	P50Ms      float64 `json:"p50LatencyMs"`
	P99Ms      float64 `json:"p99LatencyMs"`
}

// batchReport is the BENCH_batching.json schema.
type batchReport struct {
	Experiment  string             `json:"experiment"`
	Replicas    int                `json:"replicas"`
	SyncLatency string             `json:"syncLatency"`
	Workload    string             `json:"workload"`
	Runs        []batchRun         `json:"runs"`
	Speedup     map[string]float64 `json:"speedupByClients"` // batched / unbatched throughput
	CodecAllocs map[string]float64 `json:"codecAllocsPerOp"`
}

func toRun(mode string, r bench.Result) batchRun {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return batchRun{
		Mode: mode, Clients: r.Clients, Actions: r.Actions, Throughput: r.Throughput,
		AvgMs: ms(r.AvgLatency), P50Ms: ms(r.P50Latency), P99Ms: ms(r.P99Latency),
	}
}

// batching measures the action batching pipeline: the engine's
// forced-write closed-loop workload with batching disabled (MaxBatch 1,
// the pre-batching pipeline) versus enabled (engine defaults), plus the
// wire codecs' allocations per operation.
func batching(replicas int, clients []int, actions int, syncLat time.Duration, jsonPath, metricsPath string) error {
	fmt.Printf("== Batching: engine forced writes, %d replicas, batching off vs on (sync=%v) ==\n",
		replicas, syncLat)
	report := batchReport{
		Experiment:  "batching",
		Replicas:    replicas,
		SyncLatency: syncLat.String(),
		Workload:    fmt.Sprintf("closed-loop, %d strict 200B update actions per client", actions),
		Speedup:     make(map[string]float64),
	}
	var exposition string // replica 0's metrics from the last batched run
	for _, n := range clients {
		base := bench.Config{
			System:           bench.Engine,
			Replicas:         replicas,
			Clients:          n,
			ActionsPerClient: actions,
			SyncLatency:      syncLat,
		}
		base.CaptureMetrics = metricsPath != ""
		off := base
		off.MaxBatch = 1 // disable batching
		off.CaptureMetrics = false
		unbatched, err := bench.Run(off)
		if err != nil {
			return fmt.Errorf("unbatched clients=%d: %w", n, err)
		}
		fmt.Println("  off " + unbatched.String())
		batched, err := bench.Run(base)
		if err != nil {
			return fmt.Errorf("batched clients=%d: %w", n, err)
		}
		speedup := batched.Throughput / unbatched.Throughput
		fmt.Printf("  on  %v  (%.2fx)\n", batched, speedup)
		report.Runs = append(report.Runs, toRun("unbatched", unbatched), toRun("batched", batched))
		report.Speedup[strconv.Itoa(n)] = speedup
		exposition = batched.Metrics
	}

	evsEnc, evsDec := evs.CodecAllocsPerOp()
	binEnc, binDec := core.CodecAllocsPerOp()
	report.CodecAllocs = map[string]float64{
		"evsDataEncode":      evsEnc,
		"evsDataDecode":      evsDec,
		"engineActionEncode": binEnc,
		"engineActionDecode": binDec,
	}
	fmt.Printf("  codec allocs/op: evs data enc=%.1f dec=%.1f | engine action enc=%.1f dec=%.1f\n",
		evsEnc, evsDec, binEnc, binDec)
	fmt.Println()

	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s\n\n", jsonPath)
	}
	if metricsPath != "" {
		// Reject the exposition before writing it: an unparseable scrape is
		// a bug, and this is the check CI leans on.
		if _, err := obs.ParseExposition(exposition); err != nil {
			return fmt.Errorf("metrics exposition invalid: %w", err)
		}
		if err := os.WriteFile(metricsPath, []byte(exposition), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s (%d bytes, parser-validated)\n\n", metricsPath, len(exposition))
	}
	return nil
}

func latency(replicas, actions int, syncLat time.Duration) error {
	fmt.Printf("== § 7 latency: 1 client, %d sequential actions, %d replicas (sync=%v) ==\n",
		actions, replicas, syncLat)
	for _, sys := range []bench.System{bench.Engine, bench.COReL, bench.TwoPC} {
		r, err := bench.Run(bench.Config{
			System:           sys,
			Replicas:         replicas,
			Clients:          1,
			ActionsPerClient: actions,
			SyncLatency:      syncLat,
		})
		if err != nil {
			return err
		}
		fmt.Println("  " + r.String())
	}
	fmt.Println()
	return nil
}
