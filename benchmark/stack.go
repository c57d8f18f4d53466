package main

import (
	"fmt"
	"strings"
	"time"

	"evsdb/internal/core"
	"evsdb/internal/db"
	"evsdb/internal/evs"
	"evsdb/internal/obs"
	"evsdb/internal/storage"
	"evsdb/internal/transport"
	"evsdb/internal/transport/memnet"
	"evsdb/internal/types"
)

// Common cluster settings, the same on every workload (BENCHMARK.json
// states them too). With instant delivery a commit would cost processor
// time only, so the network charges a one-way delay.
const (
	netDelay = 100 * time.Microsecond
	evsTick  = 500 * time.Microsecond
)

// seams are the three interfaces the replication stack already has. A
// traced run slides a decorator into each; an end-to-end run leaves them
// nil, so nothing of the benchmark's sits between the layers.
type seams struct {
	node func(i int, n transport.Node) transport.Node
	gc   func(i int, g core.GroupCom) core.GroupCom
	log  func(i int, l storage.Log) storage.Log
}

// stackConfig sizes a cluster of full replica stacks.
type stackConfig struct {
	Replicas    int
	Sync        storage.SyncPolicy
	SyncLatency time.Duration
	seams       seams
}

// replica is one server's stack: memnet endpoint -> evs node -> MemLog ->
// database -> engine, the same assembly internal/cluster does.
type replica struct {
	id  types.ServerID
	gc  *evs.Node
	log *storage.MemLog // the disk: survives crashAll
	db  *db.Database
	eng *core.Engine
	obs *obs.Observer
}

// stack is a set of replicas over one partitionable in-process network.
type stack struct {
	cfg  stackConfig
	net  *memnet.Network
	ids  []types.ServerID
	reps []*replica
}

func serverID(i int) types.ServerID { return types.ServerID(fmt.Sprintf("s%02d", i)) }

// newStack starts every replica; the caller waits for the primary.
func newStack(cfg stackConfig) (*stack, error) {
	s := &stack{cfg: cfg, net: memnet.New(memnet.WithLatency(netDelay))}
	for i := 0; i < cfg.Replicas; i++ {
		s.ids = append(s.ids, serverID(i))
	}
	s.reps = make([]*replica, cfg.Replicas)
	for i := range s.reps {
		if err := s.start(i, false); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// start attaches replica i. When recovering, the engine replays the log
// that survived crashAll.
func (s *stack) start(i int, recovering bool) error {
	id := s.ids[i]
	ep, err := s.net.Attach(id)
	if err != nil {
		return fmt.Errorf("attach %s: %w", id, err)
	}
	var node transport.Node = ep
	if s.cfg.seams.node != nil {
		node = s.cfg.seams.node(i, node)
	}
	ob := obs.NewObserver()
	gc := evs.NewNode(node, evs.WithTick(evsTick), evs.WithObserver(ob))

	r := &replica{id: id, gc: gc, db: db.New(), obs: ob}
	if recovering {
		r.log = s.reps[i].log
	} else {
		r.log = storage.NewMemLog(storage.Options{Policy: s.cfg.Sync, SyncLatency: s.cfg.SyncLatency})
	}
	var gcom core.GroupCom = gc
	if s.cfg.seams.gc != nil {
		gcom = s.cfg.seams.gc(i, gcom)
	}
	var log storage.Log = r.log
	if s.cfg.seams.log != nil {
		log = s.cfg.seams.log(i, log)
	}
	r.eng, err = core.New(core.Config{
		ID:      id,
		Servers: append([]types.ServerID(nil), s.ids...),
		GC:      gcom,
		Log:     log,
		DB:      r.db,
		Recover: recovering,
		Obs:     ob,
	})
	if err != nil {
		gc.Close()
		return fmt.Errorf("engine %s: %w", id, err)
	}
	s.reps[i] = r
	return nil
}

func (s *stack) close() {
	for _, r := range s.reps {
		if r != nil {
			r.gc.Close()
			r.eng.Close()
		}
	}
}

// group maps replica indices to server ids.
func (s *stack) group(idx ...int) []types.ServerID {
	out := make([]types.ServerID, len(idx))
	for i, x := range idx {
		out[i] = s.ids[x]
	}
	return out
}

// crashAll is a power failure of the whole cluster: every endpoint drops,
// every engine stops, and each MemLog discards what was appended after its
// last sync. Killing the process would keep those records.
func (s *stack) crashAll() {
	for _, r := range s.reps {
		s.net.Crash(r.id)
		r.gc.Close()
		r.eng.Close()
		r.log.Crash()
	}
}

// recoverAll restarts every replica from its surviving log.
func (s *stack) recoverAll() error {
	for i := range s.reps {
		if err := s.start(i, true); err != nil {
			return err
		}
	}
	return nil
}

// status asks replica i for its state without trusting it to answer: a
// wedged engine must turn into a report, never a hang.
func (s *stack) status(i int) (core.Status, bool) {
	ch := make(chan core.Status, 1)
	go func() { ch <- s.reps[i].eng.Status() }()
	t := time.NewTimer(time.Second)
	defer t.Stop()
	select {
	case st := <-ch:
		return st, st.State != 0
	case <-t.C:
		return core.Status{}, false
	}
}

// states names every replica's engine state, for failure messages.
func (s *stack) states() string {
	var b strings.Builder
	for i, r := range s.reps {
		if i > 0 {
			b.WriteString(" ")
		}
		if st, ok := s.status(i); ok {
			fmt.Fprintf(&b, "%s=%v(green=%d)", r.id, st.State, st.GreenCount)
		} else {
			fmt.Fprintf(&b, "%s=unresponsive", r.id)
		}
	}
	return b.String()
}

// waitFor blocks until cond holds for replica i's status or the deadline
// passes. The engine's Watch channel signals state changes and green
// applies, so the wait is event-driven with a coarse fallback.
func (s *stack) waitFor(i int, deadline time.Time, cond func(core.Status) bool) bool {
	eng := s.reps[i].eng
	for {
		if st, ok := s.status(i); ok && cond(st) {
			return true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		ch, cancel := eng.Watch()
		if st, ok := s.status(i); ok && cond(st) {
			cancel()
			return true
		}
		t := time.NewTimer(min(wait, 20*time.Millisecond))
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
		cancel()
	}
}

// waitPrimary waits until every listed replica is in RegPrim.
func (s *stack) waitPrimary(timeout time.Duration, idx ...int) error {
	deadline := time.Now().Add(timeout)
	for _, i := range idx {
		if !s.waitFor(i, deadline, func(st core.Status) bool { return st.State == core.RegPrim }) {
			return fmt.Errorf("replica %s not RegPrim after %v: %s", s.ids[i], timeout, s.states())
		}
	}
	return nil
}

// waitGreen waits until every listed replica has marked n actions green.
func (s *stack) waitGreen(n uint64, timeout time.Duration, idx ...int) error {
	deadline := time.Now().Add(timeout)
	for _, i := range idx {
		if !s.waitFor(i, deadline, func(st core.Status) bool { return st.GreenCount >= n }) {
			return fmt.Errorf("replica %s short of %d green actions after %v: %s", s.ids[i], n, timeout, s.states())
		}
	}
	return nil
}

// submitters returns the engines as the load generator takes them.
func (s *stack) submitters() []submitter {
	out := make([]submitter, len(s.reps))
	for i, r := range s.reps {
		out[i] = r.eng
	}
	return out
}

func (s *stack) all() []int {
	out := make([]int, len(s.reps))
	for i := range out {
		out[i] = i
	}
	return out
}
