package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyProbes keeps the probes to a fraction of a second.
var tinyProbes = probeSizes{
	reps: 2, dbKeys: 2000, batches: 2, queries: 500, prefixKeys: 500,
	logAppends: 1000, fileSyncs: 5, evsIdle: 5, evsStream: 600,
	soloOps: 10, restartOps: 300, tcpPings: 20, tcpFrames: 50,
	httpGets: 10, httpSets: 5,
}

// The -quick smoke: every workload for about a second, with every
// correctness check on, and every end-to-end metric measured.
func TestQuickSmokeOfEveryWorkload(t *testing.T) {
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			v, d, err := measureEndToEnd(s, 42, quickSeconds)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Correct || d.Failed != 0 || d.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", d.Correct, d.Attempted, d.Failed)
			}
			for _, def := range endToEnd {
				if v[def.Name] <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", def.Name, v[def.Name])
				}
			}
			if s.Cycles > 0 && d.Samples["fault_cycles"] == 0 {
				t.Error("no fault cycle ran")
			}
		})
	}
}

// A traced run reports every per-layer metric BENCHMARK.json lists, and
// the stages it splits a commit into are consistent.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	s, _ := specByName("strict_write")
	tracePath := filepath.Join(t.TempDir(), "spans.jsonl")
	v, d, err := measureTraced(s, 7, 2, tinyProbes, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Correct {
		t.Error("traced run not marked correct")
	}
	for _, def := range perLayer {
		if _, ok := v[def.Name]; !ok {
			t.Errorf("traced run did not measure %s", def.Name)
		}
	}
	sum := v["core.submit_to_multicast_ms"] + v["evs.multicast_to_safe_ms"] + v["core.safe_to_reply_ms"]
	if p50 := v["trace.commit_p50_ms"]; p50 <= 0 || sum < 0.7*p50 || sum > 1.3*p50 {
		t.Errorf("stage medians sum to %.3f ms, traced commit p50 is %.3f ms", sum, p50)
	}
	if v["storage.sync_ms"] < 2 {
		t.Errorf("storage.sync_ms = %.3f with a 2 ms forced write", v["storage.sync_ms"])
	}
	if v["transport.dropped_total"] != 0 {
		t.Errorf("%v datagrams dropped on a fault-free workload", v["transport.dropped_total"])
	}
	if info, err := os.Stat(tracePath); err != nil || info.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
}

// runFailing runs one workload through the command's own path and returns
// its exit code and what it printed.
func runFailing(t *testing.T, s spec) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = runOne(s, 5, quickSeconds, false, "", "", &out, &errOut)
	return code, out.String(), errOut.String()
}

func requireFailure(t *testing.T, code int, stdout, stderr string, must ...string) {
	t.Helper()
	if code == 0 {
		t.Fatalf("exit code 0; stdout %q", stdout)
	}
	if strings.Contains(stdout, `"correct"`) {
		t.Errorf("a failed run printed a result line: %q", stdout)
	}
	for _, m := range must {
		if !strings.Contains(stderr, m) {
			t.Errorf("message %q does not name %q", stderr, m)
		}
	}
}

// A disk that acknowledges syncs it never performs loses acknowledged keys
// in the crash of every replica; the durability epilogue must say so.
func TestDroppedAcknowledgedKeyFailsTheRun(t *testing.T) {
	s, _ := specByName("partition_heal")
	s.inject = "lying-sync"
	code, stdout, stderr := runFailing(t, s)
	requireFailure(t, code, stdout, stderr, "partition_heal", "acknowledged key", "replica s0")
}

func TestDivergedSnapshotFailsTheRun(t *testing.T) {
	s, _ := specByName("strict_write")
	s.inject = "diverge"
	code, stdout, stderr := runFailing(t, s)
	requireFailure(t, code, stdout, stderr, "strict_write", "diverged snapshot", "s04")
}

// A heal that never lets the minority catch up (the shape of the known
// Construct wedge) must fail within the watchdog's limit, naming every
// replica's state, not hang.
func TestStuckHealFailsFast(t *testing.T) {
	s, _ := specByName("partition_heal")
	s.inject = "stuck-heal"
	s.catchUp = 300 * time.Millisecond
	began := time.Now()
	code, stdout, stderr := runFailing(t, s)
	requireFailure(t, code, stdout, stderr, "partition_heal", "no catch-up after heal", "replica s03", "s00=", "s04=")
	if took := time.Since(began); took > 10*time.Second {
		t.Errorf("a stuck heal took %v to fail", took)
	}
}

// BENCHMARK.json is generated from the program's own definitions; the two
// must not drift, and the file must stay inside the contract's limits.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	var want bytes.Buffer
	if code := printSpec(&want); code != 0 {
		t.Fatal("printSpec failed")
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `benchmark -print-spec`; regenerate it")
	}
	var f benchmarkFile
	if err := json.Unmarshal(got, &f); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is invalid or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is invalid", n, u)
		}
	}
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 {
		t.Errorf("%d workloads", len(f.Workloads))
	}
	for _, w := range f.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters or spans lines", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range f.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(f.PerLayer))
	}
	for _, m := range f.PerLayer {
		check(m.Name, m.Unit)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 || len(got) > 64<<10 {
		t.Errorf("run_seconds %d, file %d bytes", f.RunSeconds, len(got))
	}
}

func TestVerdict(t *testing.T) {
	lower := func(median, spread float64) series { return series{Better: "lower", Median: median, Spread: spread} }
	higher := func(median, spread float64) series {
		return series{Better: "higher", Median: median, Spread: spread}
	}
	for _, c := range []struct {
		name     string
		old, new series
		bound    float64
		want     string
	}{
		{"within the bound", lower(10, 0.02), lower(10.5, 0.02), 0.10, "ok"},
		{"slower than the bound allows", lower(10, 0.02), lower(11.5, 0.02), 0.10, "worse"},
		{"faster", lower(10, 0.02), lower(5, 0.02), 0.10, "ok"},
		{"less capacity", higher(1000, 0.01), higher(850, 0.01), 0.10, "worse"},
		{"more capacity", higher(1000, 0.01), higher(1500, 0.01), 0.10, "ok"},
		{"too noisy to tell", lower(10, 0.30), lower(20, 0.02), 0.10, "unresolved"},
		{"new side too noisy", lower(10, 0.01), lower(10, 0.12), 0.10, "unresolved"},
	} {
		if _, got := verdict(c.old, c.new, c.bound); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareExitsNonZeroOnWorse(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, p50 float64) string {
		r := resultFile{Workloads: []workloadResult{{Name: "strict_write", Correct: true, EndToEnd: map[string]series{}}}}
		for _, def := range endToEnd {
			r.Workloads[0].EndToEnd[def.Name] = series{Unit: def.Unit, Better: def.Better, Values: []float64{1}, Median: 1}
		}
		s := r.Workloads[0].EndToEnd["commit_p50_ms"]
		s.Median = p50
		r.Workloads[0].EndToEnd["commit_p50_ms"] = s
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := file("a.json", 7.5), file("b.json", 7.6), file("c.json", 12)
	var out, errOut bytes.Buffer
	if code := run([]string{"-compare", "-spec", "../BENCHMARK.json", base, same}, &out, &errOut); code != 0 {
		t.Errorf("equal files: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"-compare", "-spec", "../BENCHMARK.json", base, slow}, &out, &errOut); code != 1 {
		t.Errorf("slower file: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "commit_p50_ms") {
		t.Errorf("comparison does not name the metric that got worse:\n%s", out.String())
	}
	buf, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(buf)), "\"claim\": null\n}") {
		t.Errorf("a result file must end with \"claim\": null; got ...%q", buf[max(0, len(buf)-40):])
	}
}
