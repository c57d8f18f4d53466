// Package corel implements the COReL-style baseline (Keidar 1994): total
// order from the group communication layer plus a per-action end-to-end
// acknowledgment round before an action may be committed to the global
// persistent order.
//
// Cost model per action (paper § 7): one forced disk write at every
// replica and n multicast messages (the action plus one acknowledgment
// multicast per replica). Acknowledgments are cumulative — each covers
// every action the replica has forced so far — so under load they batch
// with group commit, exactly as a production implementation would
// piggyback them. The replication engine removes the acknowledgment round
// entirely; benchmarking both on the same EVS substrate isolates that
// difference, the paper's central claim.
package corel

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"evsdb/internal/evs"
	"evsdb/internal/storage"
	"evsdb/internal/types"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("corel: replica closed")

// GroupCom is the group-communication dependency (same as the engine's).
type GroupCom interface {
	Multicast(payload []byte, service evs.ServiceLevel) error
	Events() <-chan evs.Event
}

type msgKind int

const (
	kindAction msgKind = iota + 1
	kindAck
)

type wireMsg struct {
	Kind msgKind        `json:"kind"`
	ID   types.ActionID `json:"id,omitempty"`
	// UpTo is the cumulative acknowledgment bound: every action with
	// delivery index <= UpTo is forced to the sender's stable storage.
	UpTo uint64 `json:"upTo,omitempty"`
	Body []byte `json:"body,omitempty"`
}

// Replica is one COReL server.
type Replica struct {
	id     types.ServerID
	gc     GroupCom
	log    storage.Log
	syncer *storage.AsyncSyncer

	submitCh chan submitReq
	statsCh  chan chan uint64
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// Loop-owned state.
	members     []types.ServerID
	nextIdx     uint64
	delivered   uint64 // actions delivered in total order
	ackHigh     map[types.ServerID]uint64
	commitUpTo  uint64
	pendingByID map[types.ActionID]chan struct{}
	waiters     map[uint64][]chan struct{} // by delivery index
	committed   uint64
}

type submitReq struct {
	body []byte
	ch   chan chan struct{}
}

// New starts a COReL replica on the given group endpoint and log.
func New(id types.ServerID, gc GroupCom, log storage.Log) *Replica {
	r := &Replica{
		id:          id,
		gc:          gc,
		log:         log,
		submitCh:    make(chan submitReq),
		statsCh:     make(chan chan uint64),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		ackHigh:     make(map[types.ServerID]uint64),
		pendingByID: make(map[types.ActionID]chan struct{}),
		waiters:     make(map[uint64][]chan struct{}),
	}
	r.syncer = storage.NewAsyncSyncer(log)
	go r.run()
	return r
}

// Close stops the replica loop.
func (r *Replica) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.syncer.Close()
}

// Committed returns the number of actions committed to the global order.
func (r *Replica) Committed() uint64 {
	ch := make(chan uint64, 1)
	select {
	case r.statsCh <- ch:
		return <-ch
	case <-r.stop:
		return 0
	case <-r.done:
		return 0
	}
}

// Submit injects an action and blocks until it is committed (forced
// write everywhere plus the acknowledgment round).
func (r *Replica) Submit(ctx context.Context, body []byte) error {
	req := submitReq{body: body, ch: make(chan chan struct{}, 1)}
	select {
	case r.submitCh <- req:
	case <-r.stop:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	committed := <-req.ch
	select {
	case <-committed:
		return nil
	case <-r.stop:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *Replica) run() {
	defer close(r.done)
	events := r.gc.Events()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			r.handleEvent(ev)
		case req := <-r.submitCh:
			r.onSubmit(req)
		case ch := <-r.statsCh:
			ch <- r.committed
		case <-r.stop:
			return
		}
	}
}

func (r *Replica) onSubmit(req submitReq) {
	r.nextIdx++
	id := types.ActionID{Server: r.id, Index: r.nextIdx}
	committed := make(chan struct{})
	r.pendingByID[id] = committed
	req.ch <- committed
	buf, err := json.Marshal(wireMsg{Kind: kindAction, ID: id, Body: req.body})
	if err != nil {
		panic(fmt.Sprintf("corel: marshal: %v", err))
	}
	_ = r.gc.Multicast(buf, evs.Agreed)
}

func (r *Replica) handleEvent(ev evs.Event) {
	switch t := ev.(type) {
	case evs.ViewChange:
		if !t.Config.Transitional {
			r.members = append([]types.ServerID(nil), t.Config.Members...)
			r.advanceCommit()
		}
	case evs.Delivery:
		var m wireMsg
		if err := json.Unmarshal(t.Payload, &m); err != nil {
			return
		}
		switch m.Kind {
		case kindAction:
			r.delivered++
			idx := r.delivered
			if ch, ok := r.pendingByID[m.ID]; ok {
				delete(r.pendingByID, m.ID)
				r.waiters[idx] = append(r.waiters[idx], ch)
			}
			// End-to-end requirement: force the action to stable
			// storage, then acknowledge. The acknowledgment is the
			// per-action cost the replication engine eliminates.
			_ = r.log.Append(t.Payload)
			ack, err := json.Marshal(wireMsg{Kind: kindAck, UpTo: idx})
			if err != nil {
				panic(fmt.Sprintf("corel: marshal ack: %v", err))
			}
			// Tagged: within one group-commit batch only the newest
			// (cumulative) acknowledgment is multicast.
			r.syncer.AfterTagged("ack", func() { _ = r.gc.Multicast(ack, evs.Fifo) })
		case kindAck:
			if m.UpTo > r.ackHigh[t.Sender] {
				r.ackHigh[t.Sender] = m.UpTo
				r.advanceCommit()
			}
		}
	}
}

// advanceCommit commits every action acknowledged by all current members.
func (r *Replica) advanceCommit() {
	if len(r.members) == 0 {
		return
	}
	min := r.delivered
	for _, m := range r.members {
		if v := r.ackHigh[m]; v < min {
			min = v
		}
	}
	for r.commitUpTo < min {
		r.commitUpTo++
		r.committed++
		for _, ch := range r.waiters[r.commitUpTo] {
			close(ch)
		}
		delete(r.waiters, r.commitUpTo)
	}
}
