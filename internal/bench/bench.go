// Package bench is the experiment harness that regenerates the paper's
// evaluation (§ 7): throughput versus number of clients for the
// replication engine, COReL and two-phase commit (Fig. 5a), the impact of
// forced versus delayed disk writes (Fig. 5b), and the single-client
// latency comparison.
//
// Absolute numbers depend on the simulated fsync latency and the host;
// the *shape* — engine > COReL > 2PC, delayed >> forced, 2PC latency ≈ 2×
// the others — is the reproduction target.
package bench

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"evsdb/internal/baseline/corel"
	"evsdb/internal/baseline/twopc"
	"evsdb/internal/cluster"
	"evsdb/internal/core"
	"evsdb/internal/db"
	"evsdb/internal/evs"
	"evsdb/internal/storage"
	"evsdb/internal/transport/memnet"
	"evsdb/internal/types"
)

// System selects the protocol under test.
type System int

const (
	// Engine is the paper's replication engine with forced writes.
	Engine System = iota + 1
	// EngineDelayed is the engine with asynchronous (delayed) writes.
	EngineDelayed
	// COReL is the total-order + per-action end-to-end ack baseline.
	COReL
	// TwoPC is the two-phase commit baseline.
	TwoPC
)

func (s System) String() string {
	switch s {
	case Engine:
		return "engine"
	case EngineDelayed:
		return "engine-delayed"
	case COReL:
		return "corel"
	case TwoPC:
		return "2pc"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Config parameterizes one run.
type Config struct {
	System   System
	Replicas int
	Clients  int
	// ActionsPerClient is the closed-loop depth per client.
	ActionsPerClient int
	// SyncLatency simulates the forced-write cost (the paper's runs are
	// disk-bound; this is the knob that stands in for their disks).
	SyncLatency time.Duration
	// PayloadBytes pads each action (paper: 200-byte actions).
	PayloadBytes int
	// EVSTick tunes the group-communication tick.
	EVSTick time.Duration
	// MaxBatch caps the engines' submission batching (see
	// core.Config.MaxBatchActions): 0 keeps the engine default, 1
	// disables batching (the pre-batching pipeline).
	MaxBatch int
	// CaptureMetrics renders replica 0's metrics registry (Prometheus
	// text) into Result.Metrics after the run, before teardown. Engine
	// systems only; the baselines are not instrumented.
	CaptureMetrics bool
}

func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 14
	}
	if c.Clients == 0 {
		c.Clients = 1
	}
	if c.ActionsPerClient == 0 {
		c.ActionsPerClient = 100
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 200
	}
	if c.EVSTick == 0 {
		c.EVSTick = 500 * time.Microsecond
	}
	return c
}

// Result reports one run's measurements.
type Result struct {
	System     string
	Replicas   int
	Clients    int
	Actions    int
	Elapsed    time.Duration
	Throughput float64 // actions per second
	AvgLatency time.Duration
	P50Latency time.Duration
	P99Latency time.Duration
	// Metrics is replica 0's Prometheus text exposition, captured at the
	// end of the run when Config.CaptureMetrics is set.
	Metrics string
}

func (r Result) String() string {
	return fmt.Sprintf("%-14s replicas=%2d clients=%2d actions=%5d  %8.1f actions/s  avg latency %8.3fms  p50 %8.3fms  p99 %8.3fms",
		r.System, r.Replicas, r.Clients, r.Actions,
		r.Throughput, float64(r.AvgLatency)/float64(time.Millisecond),
		float64(r.P50Latency)/float64(time.Millisecond),
		float64(r.P99Latency)/float64(time.Millisecond))
}

// submitter abstracts one replica's blocking submit path.
type submitter func(ctx context.Context, payload []byte) error

// Runner is a ready-to-drive protocol stack: one submit entry point per
// replica. It separates setup cost from the measured region (used by the
// testing.B benchmarks).
type Runner struct {
	cfg     Config
	subs    []submitter
	engines []*core.Engine // engine systems only
	cleanup func()
}

// NewRunner builds and settles the protocol stack for cfg.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	subs, engines, cleanup, err := buildSystem(cfg)
	if err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, subs: subs, engines: engines, cleanup: cleanup}, nil
}

// Engine returns the i-th replica's engine (nil for baseline systems),
// for benchmarks that exercise engine-specific APIs.
func (r *Runner) Engine(i int) *core.Engine {
	if len(r.engines) == 0 {
		return nil
	}
	return r.engines[i%len(r.engines)]
}

// Payload builds the standard padded action payload.
func (r *Runner) Payload() []byte {
	return db.EncodeUpdate(db.Noop(strings.Repeat("x", r.cfg.PayloadBytes)))
}

// Submit drives one blocking action via the client's home replica.
func (r *Runner) Submit(ctx context.Context, client int, payload []byte) error {
	return r.subs[client%len(r.subs)](ctx, payload)
}

// Close tears the stack down.
func (r *Runner) Close() { r.cleanup() }

// Run executes one benchmark configuration and reports throughput and
// mean latency. Clients are closed-loop: each submits its next action as
// soon as the previous one is globally ordered (paper § 7).
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	runner, err := NewRunner(cfg)
	if err != nil {
		return Result{}, err
	}
	defer runner.Close()
	subs := runner.subs
	_ = runner.engines

	payload := db.EncodeUpdate(db.Noop(strings.Repeat("x", cfg.PayloadBytes)))
	total := cfg.Clients * cfg.ActionsPerClient

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		lats    = make([]time.Duration, 0, total)
		runErr  error
		started = time.Now()
	)
	for i := 0; i < cfg.Clients; i++ {
		sub := subs[i%len(subs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]time.Duration, 0, cfg.ActionsPerClient)
			for j := 0; j < cfg.ActionsPerClient; j++ {
				t0 := time.Now()
				if err := sub(ctx, payload); err != nil {
					mu.Lock()
					if runErr == nil {
						runErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(started)
	if runErr != nil {
		return Result{}, runErr
	}
	var metrics string
	if cfg.CaptureMetrics {
		if eng := runner.Engine(0); eng != nil {
			var b strings.Builder
			if err := eng.Observer().Reg.WriteText(&b); err != nil {
				return Result{}, fmt.Errorf("metrics render: %w", err)
			}
			metrics = b.String()
		}
	}
	var lat time.Duration
	for _, d := range lats {
		lat += d
	}
	slices.Sort(lats)
	return Result{
		System:     cfg.System.String(),
		Replicas:   cfg.Replicas,
		Clients:    cfg.Clients,
		Actions:    total,
		Elapsed:    elapsed,
		Throughput: float64(total) / elapsed.Seconds(),
		AvgLatency: lat / time.Duration(total),
		P50Latency: percentile(lats, 50),
		P99Latency: percentile(lats, 99),
		Metrics:    metrics,
	}, nil
}

// percentile reads the p-th percentile from sorted latencies.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}

// buildSystem assembles the protocol stack and returns one submitter per
// replica (clients attach round-robin), plus the engines for
// engine-based systems.
func buildSystem(cfg Config) ([]submitter, []*core.Engine, func(), error) {
	switch cfg.System {
	case Engine, EngineDelayed:
		policy := storage.SyncForced
		if cfg.System == EngineDelayed {
			policy = storage.SyncDelayed
		}
		c, err := cluster.New(cfg.Replicas,
			cluster.WithSyncPolicy(policy),
			cluster.WithSyncLatency(cfg.SyncLatency),
			cluster.WithEVSTick(cfg.EVSTick),
			cluster.WithMaxBatch(cfg.MaxBatch),
		)
		if err != nil {
			return nil, nil, nil, err
		}
		ids := c.IDs()
		if err := c.WaitPrimary(30*time.Second, ids...); err != nil {
			c.Close()
			return nil, nil, nil, err
		}
		subs := make([]submitter, 0, len(ids))
		engines := make([]*core.Engine, 0, len(ids))
		for _, id := range ids {
			eng := c.Replica(id).Engine
			engines = append(engines, eng)
			subs = append(subs, func(ctx context.Context, payload []byte) error {
				r, err := eng.Submit(ctx, payload, nil, types.SemStrict)
				if err != nil {
					return err
				}
				if r.Err != "" {
					return fmt.Errorf("action aborted: %s", r.Err)
				}
				return nil
			})
		}
		return subs, engines, c.Close, nil

	case COReL:
		net := memnet.New()
		var reps []*corel.Replica
		var nodes []*evs.Node
		for i := 0; i < cfg.Replicas; i++ {
			id := cluster.ServerID(i)
			ep, err := net.Attach(id)
			if err != nil {
				return nil, nil, nil, err
			}
			node := evs.NewNode(ep, evs.WithTick(cfg.EVSTick))
			nodes = append(nodes, node)
			log := storage.NewMemLog(storage.Options{
				Policy:      storage.SyncForced,
				SyncLatency: cfg.SyncLatency,
			})
			reps = append(reps, corel.New(id, node, log))
		}
		cleanup := func() {
			for _, r := range reps {
				r.Close()
			}
			for _, n := range nodes {
				n.Close()
			}
		}
		// Let the initial configuration settle.
		time.Sleep(200 * time.Millisecond)
		subs := make([]submitter, len(reps))
		for i, r := range reps {
			r := r
			subs[i] = func(ctx context.Context, payload []byte) error {
				return r.Submit(ctx, payload)
			}
		}
		return subs, nil, cleanup, nil

	case TwoPC:
		net := memnet.New()
		var ids []types.ServerID
		for i := 0; i < cfg.Replicas; i++ {
			ids = append(ids, cluster.ServerID(i))
		}
		var reps []*twopc.Replica
		for _, id := range ids {
			ep, err := net.Attach(id)
			if err != nil {
				return nil, nil, nil, err
			}
			log := storage.NewMemLog(storage.Options{
				Policy:      storage.SyncForced,
				SyncLatency: cfg.SyncLatency,
			})
			reps = append(reps, twopc.New(id, ep, log, ids))
		}
		cleanup := func() {
			for _, r := range reps {
				r.Close()
			}
		}
		subs := make([]submitter, len(reps))
		for i, r := range reps {
			r := r
			subs[i] = func(ctx context.Context, payload []byte) error {
				return r.Submit(ctx, payload)
			}
		}
		return subs, nil, cleanup, nil
	}
	return nil, nil, nil, fmt.Errorf("bench: unknown system %v", cfg.System)
}

// Series runs one system across a range of client counts (a Fig. 5 curve).
func Series(sys System, replicas int, clients []int, actionsPerClient int, syncLatency time.Duration) ([]Result, error) {
	var out []Result
	for _, n := range clients {
		r, err := Run(Config{
			System:           sys,
			Replicas:         replicas,
			Clients:          n,
			ActionsPerClient: actionsPerClient,
			SyncLatency:      syncLatency,
		})
		if err != nil {
			return nil, fmt.Errorf("%v clients=%d: %w", sys, n, err)
		}
		out = append(out, r)
	}
	return out, nil
}
