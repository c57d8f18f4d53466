// Package cluster assembles full replication stacks — memnet endpoint,
// EVS node, stable storage, database, engine — for tests, examples and
// benchmarks, with scripting for partitions, merges, crashes, recoveries
// and online joins.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"evsdb/internal/core"
	"evsdb/internal/db"
	"evsdb/internal/evs"
	"evsdb/internal/obs"
	"evsdb/internal/quorum"
	"evsdb/internal/storage"
	"evsdb/internal/transport/memnet"
	"evsdb/internal/types"
)

// Option configures a Cluster.
type Option func(*Cluster)

// WithSyncPolicy selects the stable-storage sync policy for all replicas.
func WithSyncPolicy(p storage.SyncPolicy) Option {
	return func(c *Cluster) { c.logOpts.Policy = p }
}

// WithSyncLatency sets the simulated forced-write latency.
func WithSyncLatency(d time.Duration) Option {
	return func(c *Cluster) { c.logOpts.SyncLatency = d }
}

// WithEVSTick sets the group-communication protocol tick.
func WithEVSTick(d time.Duration) Option {
	return func(c *Cluster) { c.evsTick = d }
}

// WithNetwork passes options to the underlying memnet.
func WithNetwork(opts ...memnet.Option) Option {
	return func(c *Cluster) { c.netOpts = append(c.netOpts, opts...) }
}

// WithQuorum selects the quorum system for all replicas.
func WithQuorum(q quorum.System) Option {
	return func(c *Cluster) { c.quorum = q }
}

// WithMaxBatch caps how many submissions each engine coalesces into one
// ActionBatch (see core.Config.MaxBatchActions): 0 keeps the engine
// default, 1 (or negative) disables batching.
func WithMaxBatch(n int) Option {
	return func(c *Cluster) { c.maxBatch = n }
}

// WithCrashHook installs a fault-injection hook invoked at every engine
// "** sync to disk" barrier (see core.Config.SyncHook). Returning true
// kills the replica exactly at that barrier: the engine halts mid-handler
// and the network endpoint drops synchronously, before any post-barrier
// protocol message can leave the machine. The caller must still invoke
// Crash(id) afterwards to finish the teardown (close the GC stack and
// drop the unsynced log tail) before Recover(id).
func WithCrashHook(fn func(id types.ServerID, point string) bool) Option {
	return func(c *Cluster) { c.crashHook = fn }
}

// Replica bundles one server's full stack.
type Replica struct {
	ID     types.ServerID
	Engine *core.Engine
	GC     *evs.Node
	Log    *storage.MemLog
	DB     *db.Database
	// Obs is the observer shared by the replica's engine and EVS node: one
	// metrics registry and one event ring per incarnation (a recovery gets
	// a fresh one, like a restarted process would).
	Obs *obs.Observer
}

// Cluster is a set of replicas over one partitionable network.
type Cluster struct {
	Net *memnet.Network

	logOpts   storage.Options
	evsTick   time.Duration
	netOpts   []memnet.Option
	quorum    quorum.System
	maxBatch  int
	crashHook func(id types.ServerID, point string) bool

	mu       sync.Mutex
	replicas map[types.ServerID]*Replica
	servers  []types.ServerID
}

// ServerID names the i-th replica (zero-based) in a cluster.
func ServerID(i int) types.ServerID {
	return types.ServerID(fmt.Sprintf("s%02d", i))
}

// New builds and starts a cluster of n replicas named s00..s(n-1).
func New(n int, opts ...Option) (*Cluster, error) {
	c := &Cluster{
		logOpts:  storage.Options{Policy: storage.SyncForced},
		evsTick:  500 * time.Microsecond,
		replicas: make(map[types.ServerID]*Replica),
	}
	for _, opt := range opts {
		opt(c)
	}
	c.Net = memnet.New(c.netOpts...)
	for i := 0; i < n; i++ {
		c.servers = append(c.servers, ServerID(i))
	}
	for _, id := range c.servers {
		if _, err := c.start(id, nil, false); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// start attaches a replica stack for id. When snap is non-nil the replica
// joins from the snapshot; when recovering, the existing log is replayed.
func (c *Cluster) start(id types.ServerID, snap *core.JoinSnapshot, recovering bool) (*Replica, error) {
	ep, err := c.Net.Attach(id)
	if err != nil {
		return nil, fmt.Errorf("attach %s: %w", id, err)
	}
	ob := obs.NewObserver()
	gc := evs.NewNode(ep, evs.WithTick(c.evsTick), evs.WithObserver(ob))

	c.mu.Lock()
	var log *storage.MemLog
	if old, ok := c.replicas[id]; ok && recovering {
		log = old.Log // the disk survives the crash
	} else {
		log = storage.NewMemLog(c.logOpts)
	}
	servers := append([]types.ServerID(nil), c.servers...)
	c.mu.Unlock()

	database := db.New()
	cfg := core.Config{
		ID:              id,
		Servers:         servers,
		GC:              gc,
		Log:             log,
		DB:              database,
		Quorum:          c.quorum,
		Recover:         recovering,
		MaxBatchActions: c.maxBatch,
		Obs:             ob,
	}
	if c.crashHook != nil {
		cfg.SyncHook = func(point string) bool {
			if !c.crashHook(id, point) {
				return false
			}
			c.Net.Crash(id)
			return true
		}
	}
	var eng *core.Engine
	if snap != nil {
		eng, err = core.NewFromJoin(cfg, snap)
	} else {
		eng, err = core.New(cfg)
	}
	if err != nil {
		gc.Close()
		return nil, fmt.Errorf("engine %s: %w", id, err)
	}
	r := &Replica{ID: id, Engine: eng, GC: gc, Log: log, DB: database, Obs: ob}
	c.mu.Lock()
	c.replicas[id] = r
	c.mu.Unlock()
	return r, nil
}

// Replica returns the stack for id (nil if crashed or unknown).
func (c *Cluster) Replica(id types.ServerID) *Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replicas[id]
}

// IDs returns the initial server ids.
func (c *Cluster) IDs() []types.ServerID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]types.ServerID(nil), c.servers...)
}

// Alive returns ids of currently running replicas.
func (c *Cluster) Alive() []types.ServerID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []types.ServerID
	for id := range c.replicas {
		out = append(out, id)
	}
	return types.SortServerIDs(out)
}

// Partition splits the network (see memnet.Network.Partition).
func (c *Cluster) Partition(groups ...[]types.ServerID) {
	c.Net.Partition(groups...)
}

// Heal reconnects all components.
func (c *Cluster) Heal() { c.Net.Heal() }

// Crash kills a replica: the network endpoint drops, the engine and GC
// stop, and unsynced log records are lost (power-failure semantics).
func (c *Cluster) Crash(id types.ServerID) {
	c.mu.Lock()
	r := c.replicas[id]
	if r != nil {
		delete(c.replicas, id)
	}
	c.mu.Unlock()
	if r == nil {
		return
	}
	c.Net.Crash(id)
	r.GC.Close()
	r.Engine.Close()
	r.Log.Crash()
	c.mu.Lock()
	c.replicas[id] = r // keep the stack (and its disk) for recovery
	c.mu.Unlock()
}

// Recover restarts a crashed replica from its surviving log.
func (c *Cluster) Recover(id types.ServerID) (*Replica, error) {
	return c.start(id, nil, true)
}

// Join admits a brand-new replica via the given representative: the peer
// orders a PERSISTENT_JOIN, transfers a snapshot, and the new replica
// starts executing the algorithm (paper § 5.1).
func (c *Cluster) Join(ctx context.Context, newID, via types.ServerID) (*Replica, error) {
	peer := c.Replica(via)
	if peer == nil {
		return nil, fmt.Errorf("join via %s: no such replica", via)
	}
	snap, err := peer.Engine.RequestJoin(ctx, newID)
	if err != nil {
		return nil, fmt.Errorf("request join: %w", err)
	}
	c.mu.Lock()
	c.servers = append(c.servers, newID)
	c.mu.Unlock()
	return c.start(newID, snap, false)
}

// Close stops every replica.
func (c *Cluster) Close() {
	c.mu.Lock()
	reps := make([]*Replica, 0, len(c.replicas))
	for _, r := range c.replicas {
		reps = append(reps, r)
	}
	c.replicas = make(map[types.ServerID]*Replica)
	c.mu.Unlock()
	for _, r := range reps {
		r.GC.Close()
		r.Engine.Close()
	}
}

// waitCond blocks until cond holds for the replica or the deadline
// passes. It is event-driven: the engine's Watch channel signals state
// transitions and green applies, so the wait wakes as soon as anything
// observable changes. The wakeup wait is capped because the replica can
// be crashed and replaced underneath us — a dead engine never signals.
func (c *Cluster) waitCond(id types.ServerID, deadline time.Time, cond func(*Replica) bool) bool {
	for {
		r := c.Replica(id)
		if r == nil {
			if !time.Now().Before(deadline) {
				return false
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if cond(r) {
			return true
		}
		ch, cancel := r.Engine.Watch()
		if cond(r) { // re-check: the change may have raced the registration
			cancel()
			return true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			cancel()
			return false
		}
		if wait > 20*time.Millisecond {
			wait = 20 * time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
		cancel()
	}
}

// WaitState waits until the replica reaches the given engine state.
func (c *Cluster) WaitState(id types.ServerID, want core.State, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	ok := c.waitCond(id, deadline, func(r *Replica) bool {
		return r.Engine.Status().State == want
	})
	if ok {
		return nil
	}
	r := c.Replica(id)
	if r == nil {
		return fmt.Errorf("wait %s for %v: replica down", id, want)
	}
	return fmt.Errorf("wait %s for %v: still %v", id, want, r.Engine.Status().State)
}

// WaitPrimary waits until every listed replica is in RegPrim.
func (c *Cluster) WaitPrimary(timeout time.Duration, ids ...types.ServerID) error {
	for _, id := range ids {
		if err := c.WaitState(id, core.RegPrim, timeout); err != nil {
			return err
		}
	}
	return nil
}

// WaitNonPrim waits until every listed replica is in NonPrim.
func (c *Cluster) WaitNonPrim(timeout time.Duration, ids ...types.ServerID) error {
	for _, id := range ids {
		if err := c.WaitState(id, core.NonPrim, timeout); err != nil {
			return err
		}
	}
	return nil
}

// WaitGreenCount waits until every listed replica has marked at least n
// actions green.
func (c *Cluster) WaitGreenCount(n uint64, timeout time.Duration, ids ...types.ServerID) error {
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		ok := c.waitCond(id, deadline, func(r *Replica) bool {
			return r.Engine.Status().GreenCount >= n
		})
		if !ok {
			return fmt.Errorf("wait green count %d: %s timed out", n, id)
		}
	}
	return nil
}

// CheckColoring verifies the paper's Fig. 1 invariant across the listed
// replicas: an action discarded as white at one server (known green
// everywhere) must be green at every other server — never red or
// missing. Operationally: everyone's white base is bounded by everyone
// else's green count.
func (c *Cluster) CheckColoring(ids ...types.ServerID) error {
	// Read all white bases first, then all green counts: greens are
	// monotone, so a white base justified at read time is still justified
	// against the later green reads (no false positives from skew).
	whites := make(map[types.ServerID]uint64)
	for _, id := range ids {
		if r := c.Replica(id); r != nil {
			whites[id] = r.Engine.Status().WhiteBase
		}
	}
	greens := make(map[types.ServerID]uint64)
	for _, id := range ids {
		if r := c.Replica(id); r != nil {
			greens[id] = r.Engine.Status().GreenCount
		}
	}
	for a, white := range whites {
		for b, green := range greens {
			if white > green {
				return fmt.Errorf("coloring violated: %s discarded %d whites but %s has only %d greens",
					a, white, b, green)
			}
		}
	}
	return nil
}

// CheckTotalOrder verifies Theorem 1 across the listed replicas: where
// green histories overlap, they must be identical. Returns an error
// describing the first divergence.
func (c *Cluster) CheckTotalOrder(ids ...types.ServerID) error {
	type hist struct {
		id    types.ServerID
		start uint64 // global seq of history[0]
		seq   []types.ActionID
	}
	var hs []hist
	for _, id := range ids {
		r := c.Replica(id)
		if r == nil {
			continue
		}
		h, firstAt := r.Engine.GreenHistory()
		hs = append(hs, hist{id: id, start: firstAt, seq: h})
	}
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			a, b := hs[i], hs[j]
			lo := a.start
			if b.start > lo {
				lo = b.start
			}
			hiA := a.start + uint64(len(a.seq))
			hiB := b.start + uint64(len(b.seq))
			hi := hiA
			if hiB < hi {
				hi = hiB
			}
			for p := lo; p < hi; p++ {
				x := a.seq[p-a.start]
				y := b.seq[p-b.start]
				if x != y {
					return fmt.Errorf("total order violated at %d: %s has %s, %s has %s",
						p, a.id, x, b.id, y)
				}
			}
		}
	}
	return nil
}
