package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"evsdb/internal/obs"
	"evsdb/internal/storage"
)

// A run sets its cluster up several times, so one slow start does not set
// setup_s: at least minSetups times, then on until setupBudget is spent or
// maxSetups is reached. A small cluster starts in tens of milliseconds and
// needs the repeats most: five replicas form their primary in about 35 or
// about 50 ms, evenly often, so setup_s is a trimmed mean, not the median,
// of the set-ups after the first, which also pays the process's cold start.
const (
	minSetups   = 3
	maxSetups   = 40
	setupBudget = 3 * time.Second
)

// maxCapacityGuess bounds how many closed-loop inputs a short run
// generates; at full length the workload's op cap is lower and rules.
const maxCapacityGuess = 60000 // ops/s

// values maps a metric name to its measured value.
type values map[string]float64

// detail is what a run records besides its metrics: sample counts and the
// run's shape, for the result file.
type detail struct {
	Spec         spec           `json:"params"`
	Seed         int64          `json:"seed"`
	Seconds      float64        `json:"seconds"`
	Traced       bool           `json:"traced"`
	Samples      map[string]int `json:"samples"`
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	Correct      bool           `json:"correct"`
	Violation    string         `json:"violation,omitempty"`
	WallSeconds  float64        `json:"wall_s"`
	SetupSeconds []float64      `json:"setup_runs_s,omitempty"`
}

// lyingLog acknowledges a sync it never performs: the injected fault the
// durability epilogue must catch.
type lyingLog struct{ storage.Log }

func (lyingLog) Sync() error { return nil }

// setup starts a cluster, waits for its primary and preloads it.
func setup(s spec, sm seams, seed int64) (*stack, error) {
	st, err := newStack(s.stackConfig(sm))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	if err := st.waitPrimary(10*time.Second, st.all()...); err != nil {
		st.close()
		return nil, fmt.Errorf("%s: setup: %w", s.Name, err)
	}
	if err := preload(st, s.PreloadKeys, s.ValueBytes, seed); err != nil {
		st.close()
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	return st, nil
}

// inputsFor generates the writes a plan can consume.
func (s spec) inputsFor(seed int64, p plan) *inputs {
	n := int(s.PacedRate * (p.warm + p.paced).Seconds())
	n += min(s.SaturateMaxOps, int(p.saturate.Seconds()*maxCapacityGuess))
	return s.generate(seed, n)
}

// measureEndToEnd is a run with tracing off: nothing of the benchmark's
// sits between the layers.
func measureEndToEnd(s spec, seed int64, seconds float64) (values, *detail, error) {
	began := time.Now()
	d := &detail{Spec: s, Seed: seed, Seconds: seconds, Samples: map[string]int{}}
	full := s.plan(seconds)

	var sm seams
	if s.inject == "lying-sync" {
		sm.log = func(_ int, l storage.Log) storage.Log { return lyingLog{l} }
	}
	var st *stack
	timedSetup := func() (err error) {
		if st != nil {
			st.close()
			// The closed cluster's history is garbage; collect it now, not
			// in the middle of the next phase.
			runtime.GC()
		}
		t0 := time.Now()
		st, err = setup(s, sm, seed)
		d.SetupSeconds = append(d.SetupSeconds, time.Since(t0).Seconds())
		return err
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	setupBegan := time.Now()
	for k := 0; k < maxSetups && (k < minSetups || time.Since(setupBegan) < setupBudget); k++ {
		if err := timedSetup(); err != nil {
			return nil, d, err
		}
	}

	// Each phase runs on a cluster of its own. The replicas keep every
	// action's history, so a phase that followed another would run on a
	// heap hundreds of megabytes larger, where one garbage collection more
	// or less moves throughput by a tenth and the latency tail by more; and
	// tens of thousands of closed-loop actions ahead of partition_heal's
	// final crash would leave a recovery gap wide enough for the known
	// Construct wedge.
	phase := func(p plan, seed int64, last bool) (*loadResult, error) {
		res, err := runLoad(st, s, p, s.inputsFor(seed, p), time.Now(), nil)
		if err == nil {
			err = verify(st, res)
		}
		if err == nil && last && s.Cycles > 0 {
			err = durabilityEpilogue(st, res)
		}
		return res, err
	}
	sat, err := phase(plan{saturate: full.saturate}, seed, false)
	if err != nil {
		return nil, d, err
	}
	if err := timedSetup(); err != nil {
		return nil, d, err
	}
	paced, err := phase(plan{warm: full.warm, paced: full.paced, cycles: full.cycles}, seed+1, true)
	if paced == nil {
		return nil, d, err
	}
	m, ms := paced.summarize(), sat.summarize()
	m.capacityOpsS, m.cpuUsPerOp, m.saturateOps = ms.capacityOpsS, ms.cpuUsPerOp, ms.saturateOps
	m.attempted, m.failed = m.attempted+ms.attempted, m.failed+ms.failed
	if m.attempted > 0 {
		m.failedRatio = float64(m.failed) / float64(m.attempted)
	}
	d.Attempted, d.Failed = m.attempted, m.failed
	d.Samples["commit"] = m.pacedSamples
	d.Samples["read_bursts"] = m.readSamples
	d.Samples["saturate_ops"] = m.saturateOps
	d.Samples["fault_cycles"] = len(paced.cycles)
	d.WallSeconds = time.Since(began).Seconds()
	if err != nil {
		return nil, d, err
	}
	d.Correct = true
	return values{
		"setup_s":        trimmedMean(d.SetupSeconds[1:]), // the first pays the process's cold start
		"commit_p50_ms":  m.commitP50Ms,
		"commit_p95_ms":  m.commitP95Ms,
		"capacity_ops_s": m.capacityOpsS,
		"cpu_us_per_op":  m.cpuUsPerOp,
		"peak_rss_mb":    peakRSSMB(),
		// Not in BENCHMARK.json's end-to-end list (they can be 0, exist on
		// one workload only or are too unsteady to bound); kept for the
		// result file's per-run details.
		"read_p50_us":         m.readP50Us,
		"read_p95_us":         m.readP95Us,
		"commit_mean_ms":      m.commitMeanMs,
		"commit_p99_ms":       m.commitP99Ms,
		"slo_miss_ratio":      m.sloMiss,
		"failed_ratio":        m.failedRatio,
		"partition_stall_ms":  m.partitionStallMs,
		"heal_stall_ms":       m.healStallMs,
		"loadgen.max_late_ms": m.maxLateMs,
		"loadgen.late_share":  m.lateShare,
	}, d, nil
}

// scrape renders replica 0's metrics registry and passes it through the
// repository's own exposition parser; a rejected scrape is a correctness
// failure.
func scrape(st *stack) (ms float64, size int, err error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if err := st.reps[0].obs.Reg.WriteText(&buf); err != nil {
		return 0, 0, fmt.Errorf("render metrics of %s: %w", st.ids[0], err)
	}
	if _, err := obs.ParseExposition(buf.String()); err != nil {
		return 0, 0, fmt.Errorf("scrape of %s rejected: %w", st.ids[0], err)
	}
	return float64(time.Since(t0)) / 1e6, buf.Len(), nil
}
