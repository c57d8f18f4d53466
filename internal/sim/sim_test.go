package sim

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

var (
	simSeed   = flag.Int64("sim.seed", 0, "run only this schedule seed (plus sim.runs repeats)")
	simRuns   = flag.Int("sim.runs", 48, "number of random schedules to run in long mode")
	simShrink = flag.Bool("sim.shrink", false, "shrink failing schedules before reporting")
)

// regressionCorpus is the fixed set of seeds run on every test invocation,
// including -short. Seeds 1..60 were vetted as part of a clean 240-seed
// sweep; across the corpus roughly 40% of schedules crash nodes outright,
// almost half crash them surgically at sync barriers, and nearly all
// partition and re-partition the network. Failures print the seed and a
// replay command, so a regression here is reproducible offline with
// cmd/evssim.
var regressionCorpus = func() []int64 {
	seeds := make([]int64, 0, 60)
	for s := int64(1); s <= 60; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}()

func runSeed(t *testing.T, seed int64) {
	t.Helper()
	res := Run(Generate(seed), Options{})
	if !res.Failed() {
		return
	}
	if *simShrink {
		min := Shrink(Generate(seed), Options{}, 60)
		t.Errorf("%v\nshrunk to %d steps:\n%s\npost-mortem:\n%s",
			res.Err, len(min.Steps), min, res.Report)
		return
	}
	t.Errorf("%v\npost-mortem:\n%s", res.Err, res.Report)
}

// TestSimCorpus drives the fixed regression corpus of seeded fault
// schedules; it runs in short mode too.
func TestSimCorpus(t *testing.T) {
	if *simSeed != 0 {
		t.Skip("-sim.seed set; see TestSimSeed")
	}
	for _, seed := range regressionCorpus {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSeed(t, seed)
		})
	}
}

// retryCorpus is the fixed seed set for the retry-heavy generator:
// idempotent re-submissions of earlier keys race partitions, barrier
// crashes and view changes, and the finale asserts the exactly-once
// dedup invariant (per-key apply counter never exceeds 1; an
// acknowledged submission always applied). Runs in short mode too.
var retryCorpus = func() []int64 {
	seeds := make([]int64, 0, 40)
	for s := int64(1); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}()

// TestSimRetryCorpus drives the fixed retry-under-faults corpus.
func TestSimRetryCorpus(t *testing.T) {
	if *simSeed != 0 {
		t.Skip("-sim.seed set; see TestSimSeed")
	}
	for _, seed := range retryCorpus {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res := Run(GenerateRetry(seed), Options{})
			if res.Failed() {
				t.Errorf("%v\npost-mortem:\n%s", res.Err, res.Report)
			}
		})
	}
}

// batchCorpus is the fixed seed set for the burst-heavy generator:
// storms of back-to-back submissions travel as multi-action bundles
// (the cluster runs the engine's default MaxBatchActions > 1) while
// partitions, barrier crashes and recoveries churn underneath. The
// invariant battery is unchanged — a bundle must expand into the same
// global order everywhere, with exactly-once semantics per key.
var batchCorpus = func() []int64 {
	seeds := make([]int64, 0, 40)
	for s := int64(1); s <= 40; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}()

// TestSimBatchCorpus drives the fixed batching-under-faults corpus.
func TestSimBatchCorpus(t *testing.T) {
	if *simSeed != 0 {
		t.Skip("-sim.seed set; see TestSimSeed")
	}
	for _, seed := range batchCorpus {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res := Run(GenerateBatch(seed), Options{})
			if res.Failed() {
				t.Errorf("%v\npost-mortem:\n%s", res.Err, res.Report)
			}
		})
	}
}

// TestSimRelaxedCorpus drives the retry-under-faults schedules with every
// write submitted commutative (paper § 6): outside a primary, writes
// apply eagerly while red, so a retried key that two components both hold
// red, a barrier crash and the WAL replay after it all meet the
// exactly-once counter and the convergence check. Runs in short mode too.
func TestSimRelaxedCorpus(t *testing.T) {
	if *simSeed != 0 {
		t.Skip("-sim.seed set; see TestSimSeed")
	}
	for _, seed := range retryCorpus {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sched := GenerateRetry(seed)
			sched.Relaxed = true
			res := Run(sched, Options{})
			if res.Failed() {
				t.Errorf("%v\npost-mortem:\n%s", res.Err, res.Report)
			}
		})
	}
}

// TestSimFlakeSeed replays a schedule that has wedged a replica in
// Construct during random exploration (the failure reproduces only under
// interleaving pressure, so it is skipped by default). Run it with
// SIM_FLAKE=1, ideally alongside a parallel load, to chase the bug; the
// failure report now carries each node's event trace, which is the
// evidence the wedge diagnosis needs.
func TestSimFlakeSeed(t *testing.T) {
	if os.Getenv("SIM_FLAKE") == "" {
		t.Skip("known interleaving-dependent flake; set SIM_FLAKE=1 to chase it")
	}
	runSeed(t, 1786030011310274417)
}

// keptRandomBases each start a window of keptRandomRuns seeds that one
// random exploration drew and passed. TestSimRandom replays them beside
// every fresh window, so a regression on those schedules shows under the
// same subtest names from run to run.
var keptRandomBases = []int64{1792218363760852619, 1792414552671231757, 1792429523769264387}

const keptRandomRuns = 48

// TestSimRandom explores fresh random seeds (long mode only), after the
// kept windows. The fresh subtests are named by position (fresh=00 …) so
// every run passes the same set of names; each logs its seed, which
// -sim.seed replays.
func TestSimRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("random exploration skipped in short mode")
	}
	if *simSeed != 0 {
		t.Skip("-sim.seed set; see TestSimSeed")
	}
	for _, kept := range keptRandomBases {
		for i := int64(0); i < keptRandomRuns; i++ {
			seed := kept + i
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				runSeed(t, seed)
			})
		}
	}
	base := time.Now().UnixNano()
	t.Logf("random base seed: %d (replay any failure via -sim.seed)", base)
	for i := 0; i < *simRuns; i++ {
		seed := base + int64(i)
		t.Run(fmt.Sprintf("fresh=%02d", i), func(t *testing.T) {
			t.Parallel()
			t.Logf("seed %d", seed)
			runSeed(t, seed)
		})
	}
}

// TestSimSeed replays a single seed given via -sim.seed, repeating it
// -sim.runs times to gauge interleaving-dependent flakiness.
func TestSimSeed(t *testing.T) {
	if *simSeed == 0 {
		t.Skip("pass -sim.seed to replay a specific schedule")
	}
	sched := Generate(*simSeed)
	t.Logf("schedule:\n%s", sched)
	fails := 0
	var last *Result
	for i := 0; i < *simRuns; i++ {
		res := Run(sched, Options{})
		if res.Failed() {
			fails++
			last = res
		}
	}
	if fails == 0 {
		return
	}
	if *simShrink {
		min := Shrink(sched, Options{}, 120)
		t.Errorf("%d/%d runs failed; last: %v\nshrunk to %d steps:\n%s\npost-mortem:\n%s",
			fails, *simRuns, last.Err, len(min.Steps), min, last.Report)
		return
	}
	t.Errorf("%d/%d runs failed; last: %v\npost-mortem:\n%s", fails, *simRuns, last.Err, last.Report)
}

// TestShrinkProducesValidSchedule checks the shrinker's contract on a
// passing schedule: with no failure to preserve it must return the
// schedule unchanged, and every subsequence it would try is runnable.
func TestShrinkProducesValidSchedule(t *testing.T) {
	sched := Generate(7)
	min := Shrink(sched, Options{}, 4)
	if len(min.Steps) != len(sched.Steps) {
		t.Fatalf("shrink of a passing schedule dropped steps: %d -> %d", len(sched.Steps), len(min.Steps))
	}
	// An arbitrary subsequence must still run to completion.
	sub := &Schedule{Seed: sched.Seed, Nodes: sched.Nodes, Steps: sched.Steps[:len(sched.Steps)/2]}
	if res := Run(sub, Options{}); res.Failed() {
		t.Fatalf("subsequence of a passing schedule failed: %v", res.Err)
	}
}

// TestScheduleDeterminism checks the reproducibility contract: the same
// seed always derives the identical schedule.
func TestScheduleDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 42, 1 << 40} {
		a, b := Generate(seed), Generate(seed)
		if a.String() != b.String() || a.Nodes != b.Nodes {
			t.Fatalf("seed %d produced two different schedules:\n%s\nvs\n%s", seed, a, b)
		}
	}
}

// TestRunDeadlineReportsStuckStep: a step that never returns ends the run
// at its deadline with a failure whose report holds the stack of what was
// stuck and each replica's recent events, instead of hanging the caller;
// the abandoned run, once unblocked, no longer logs to the caller.
func TestRunDeadlineReportsStuckStep(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	var returned, lateLogs atomic.Int32
	sched := Generate(1)
	sched.Steps[0] = Step{Kind: StepHeal} // always applies, so it logs
	start := time.Now()
	res := Run(sched, Options{
		ConvergeTimeout: 5 * time.Second,
		stepBudget:      time.Millisecond,
		beforeStep: func(i int) {
			if i == 0 {
				<-release
			}
		},
		Logf: func(string, ...any) {
			if returned.Load() != 0 {
				lateLogs.Add(1)
			}
		},
	})
	returned.Store(1)
	close(release)
	if !res.Failed() || !strings.Contains(res.Err.Error(), "deadline") {
		t.Fatalf("run ended with %v, want a deadline failure", res.Err)
	}
	if took := time.Since(start); took > 30*time.Second {
		t.Fatalf("deadline failure after %v", took)
	}
	for _, want := range []string{"TestRunDeadlineReportsStuckStep", "goroutines:", "s00: last"} {
		if !strings.Contains(res.Report, want) {
			t.Fatalf("report lacks %q:\n%s", want, res.Report)
		}
	}
	time.Sleep(200 * time.Millisecond) // let the abandoned run apply its step
	if n := lateLogs.Load(); n != 0 {
		t.Fatalf("abandoned run logged %d times after Run returned", n)
	}
}
