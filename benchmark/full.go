package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment makes two result files comparable, or visibly not.
type environment struct {
	NumCPU     int     `json:"numCPU"`
	GOMAXPROCS int     `json:"GOMAXPROCS"`
	GoVersion  string  `json:"go_version"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
}

// settings are the cluster settings every workload shares.
type settings struct {
	NetDelayUs      float64 `json:"memnet_one_way_delay_us"`
	EVSTickUs       float64 `json:"evs_tick_us"`
	Engine          string  `json:"engine"`
	SLOLimitMs      float64 `json:"slo_limit_ms"`
	ReadBurst       int     `json:"read_burst"`
	SetupRepeats    string  `json:"setup_repeats"`
	ReplyTimeoutS   float64 `json:"reply_timeout_s"`
	CatchUpTimeoutS float64 `json:"catch_up_timeout_s"`
}

// series is one end-to-end metric over a workload's runs.
type series struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is (third quartile - first quartile) / median over the runs;
	// 0 with fewer than two.
	Spread float64 `json:"spread"`
}

type workloadResult struct {
	Name     string              `json:"name"`
	Params   spec                `json:"params"`
	Correct  bool                `json:"correct"`
	EndToEnd map[string]series   `json:"end_to_end"`
	PerLayer map[string]measured `json:"per_layer,omitempty"`
	Runs     []json.RawMessage   `json:"runs"` // each child's detail file
}

// resultFile is what a full run writes. Claim stays last and null: this
// benchmark measures, it claims no gain.
type resultFile struct {
	Env       environment      `json:"env"`
	Settings  settings         `json:"settings"`
	Workloads []workloadResult `json:"workloads"`
	Claim     *string          `json:"claim"`
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// child runs one workload in a fresh process of this program, so that
// set-up time, peak memory and CPU time belong to that workload alone. It
// returns the child's result line and detail file.
func child(s spec, seed int64, seconds float64, traced bool, stderr io.Writer) (resultLine, json.RawMessage, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, nil, err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return line, nil, err
	}
	f, err := os.CreateTemp(scratchDir, "detail-*.json")
	if err != nil {
		return line, nil, err
	}
	detailPath := f.Name()
	defer os.Remove(detailPath)
	if err := f.Close(); err != nil {
		return line, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", s.Name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", trace, "-detail", detailPath)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return line, nil, fmt.Errorf("%s (seed %d, trace %s): %w", s.Name, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, nil, fmt.Errorf("%s: result line: %w", s.Name, err)
	}
	detail, err := os.ReadFile(detailPath)
	if err != nil {
		return line, nil, err
	}
	return line, detail, nil
}

// runAll runs every workload, one child process at a time: runs
// end-to-end runs each, then one traced run (not in a quick run).
func runAll(seed int64, seconds float64, runs int, out string, quick bool, stdout, stderr io.Writer) int {
	res := resultFile{
		Env: environment{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			OS: runtime.GOOS, Arch: runtime.GOARCH, Commit: gitCommit(),
			Seed: seed, Seconds: seconds, Runs: runs,
		},
		Settings: settings{
			NetDelayUs: float64(netDelay.Microseconds()), EVSTickUs: float64(evsTick.Microseconds()),
			Engine:     "core.Config defaults: batch 64 / 200us, MaxInFlight 4096, apply workers min(GOMAXPROCS, 8)",
			SLOLimitMs: float64(sloLimit.Milliseconds()), ReadBurst: readBurst,
			SetupRepeats:  fmt.Sprintf("%d to %d, until %v is spent", minSetups, maxSetups, setupBudget),
			ReplyTimeoutS: replyTimeout.Seconds(), CatchUpTimeoutS: catchUpTimeout.Seconds(),
		},
	}
	failed := false
	for _, s := range specs {
		wr := workloadResult{Name: s.Name, Params: s, Correct: true, EndToEnd: map[string]series{}}
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			fmt.Fprintf(stderr, "benchmark: %s run %d/%d\n", s.Name, r+1, runs)
			line, detail, err := child(s, seed+int64(r), seconds, false, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				wr.Correct, failed = false, true
				continue
			}
			wr.Correct = wr.Correct && line.Correct
			wr.Runs = append(wr.Runs, detail)
			for name, m := range line.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, def := range endToEnd {
			v := values[def.Name]
			wr.EndToEnd[def.Name] = series{Unit: def.Unit, Better: def.Better, Values: v, Median: median(v), Spread: spread(v)}
		}
		if !quick {
			fmt.Fprintf(stderr, "benchmark: %s traced run\n", s.Name)
			line, detail, err := child(s, seed, seconds, true, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				wr.Correct, failed = false, true
			} else {
				wr.Correct = wr.Correct && line.Correct
				wr.PerLayer = line.Metrics
				wr.Runs = append(wr.Runs, detail)
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}
	printTable(stdout, res)
	if out != "" {
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// printTable prints every metric by name with its unit.
func printTable(w io.Writer, res resultFile) {
	fmt.Fprintf(w, "commit %s, %s, %d CPUs (GOMAXPROCS %d), seed %d, %v s per run, %d runs per workload\n",
		res.Env.Commit, res.Env.GoVersion, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.Seed, res.Env.Seconds, res.Env.Runs)
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n%s (correct: %v)\n", wr.Name, wr.Correct)
		for _, def := range endToEnd {
			s := wr.EndToEnd[def.Name]
			fmt.Fprintf(w, "  %-34s %14.4f %-6s spread %5.1f%%  bound %4.0f%%  (%s is better)\n",
				def.Name, s.Median, s.Unit, 100*s.Spread, 100*def.Bound, def.Better)
		}
		for _, def := range perLayer {
			if m, ok := wr.PerLayer[def.Name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %-6s %s\n", def.Name, m.Value, m.Unit, def.About)
			}
		}
	}
	fmt.Fprintln(w, "\nclaim: none")
}
