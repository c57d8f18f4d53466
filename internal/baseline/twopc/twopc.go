// Package twopc implements the two-phase-commit baseline the paper
// compares against (§ 7): the coordinator (the replica that received the
// client action) unicasts PREPARE to every replica, each participant
// forces the action to stable storage and votes, and the coordinator
// forces a commit record before answering the client and asynchronously
// propagating COMMIT.
//
// Cost model per action: two forced disk writes on the latency path
// (participant prepare + coordinator commit) and 2n unicast messages —
// exactly the paper's accounting, and the reason 2PC trails both COReL
// and the replication engine.
package twopc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"evsdb/internal/storage"
	"evsdb/internal/transport"
	"evsdb/internal/types"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("twopc: replica closed")

type msgKind int

const (
	kindPrepare msgKind = iota + 1
	kindVote
	kindCommit
)

type wireMsg struct {
	Kind msgKind        `json:"kind"`
	ID   types.ActionID `json:"id"`
	Body []byte         `json:"body,omitempty"`
}

// Replica is one 2PC participant/coordinator.
type Replica struct {
	id     types.ServerID
	tr     transport.Node
	log    storage.Log
	syncer *storage.AsyncSyncer
	peers  []types.ServerID // all replicas including self

	submitCh chan submitReq
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// Loop-owned (committed is atomic: bumped on the sync writer).
	nextIdx   uint64
	votes     map[types.ActionID]map[types.ServerID]bool
	pending   map[types.ActionID]chan struct{}
	prepared  map[types.ActionID][]byte
	committed atomic.Uint64
}

type submitReq struct {
	body []byte
	ch   chan chan struct{}
}

// New starts a 2PC replica. peers must list every replica, self included.
func New(id types.ServerID, tr transport.Node, log storage.Log, peers []types.ServerID) *Replica {
	r := &Replica{
		id:       id,
		tr:       tr,
		log:      log,
		peers:    append([]types.ServerID(nil), peers...),
		submitCh: make(chan submitReq),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		votes:    make(map[types.ActionID]map[types.ServerID]bool),
		pending:  make(map[types.ActionID]chan struct{}),
		prepared: make(map[types.ActionID][]byte),
	}
	r.syncer = storage.NewAsyncSyncer(log)
	go r.run()
	return r
}

// Close stops the replica.
func (r *Replica) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	r.syncer.Close()
}

// Committed returns the number of actions this coordinator committed.
func (r *Replica) Committed() uint64 {
	return r.committed.Load()
}

// Submit runs one 2PC round as coordinator and blocks until commit.
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
	recv := r.tr.Recv()
	for {
		select {
		case msg, ok := <-recv:
			if !ok {
				return
			}
			r.handleWire(msg)
		case req := <-r.submitCh:
			r.onSubmit(req)
		case <-r.stop:
			return
		}
	}
}

func (r *Replica) onSubmit(req submitReq) {
	r.nextIdx++
	id := types.ActionID{Server: r.id, Index: r.nextIdx}
	done := make(chan struct{})
	r.pending[id] = done
	r.votes[id] = make(map[types.ServerID]bool)
	req.ch <- done
	buf := encode(wireMsg{Kind: kindPrepare, ID: id, Body: req.body})
	for _, p := range r.peers {
		if p == r.id {
			continue
		}
		_ = r.tr.Send(p, buf)
	}
	// The coordinator prepares locally; its durability is covered by the
	// forced commit record (the second write barrier subsumes the first).
	_ = r.log.Append(buf)
	r.votes[id][r.id] = true
	r.maybeCommit(id)
}

func (r *Replica) handleWire(msg transport.Message) {
	var m wireMsg
	if err := json.Unmarshal(msg.Payload, &m); err != nil {
		return
	}
	switch m.Kind {
	case kindPrepare:
		// Participant: force the prepare record, then vote (first forced
		// write on the action's latency path).
		_ = r.log.Append(msg.Payload)
		r.prepared[m.ID] = m.Body
		vote := encode(wireMsg{Kind: kindVote, ID: m.ID})
		from := msg.From
		r.syncer.After(func() { _ = r.tr.Send(from, vote) })
	case kindVote:
		set, ok := r.votes[m.ID]
		if !ok {
			return
		}
		set[msg.From] = true
		r.maybeCommit(m.ID)
	case kindCommit:
		// Participant: record the outcome (asynchronously durable; the
		// coordinator's forced commit record is authoritative).
		_ = r.log.Append(msg.Payload)
		delete(r.prepared, m.ID)
	}
}

// maybeCommit completes the round once every peer voted: second forced
// write (the commit record), client release, asynchronous COMMIT fan-out.
func (r *Replica) maybeCommit(id types.ActionID) {
	set := r.votes[id]
	for _, p := range r.peers {
		if !set[p] {
			return
		}
	}
	delete(r.votes, id)
	commit := encode(wireMsg{Kind: kindCommit, ID: id})
	_ = r.log.Append(commit)
	ch := r.pending[id]
	delete(r.pending, id)
	peers := r.peers
	self := r.id
	tr := r.tr
	// Second forced write (the commit record), then client release and
	// asynchronous COMMIT fan-out.
	r.syncer.After(func() {
		r.committed.Add(1)
		if ch != nil {
			close(ch)
		}
		for _, p := range peers {
			if p == self {
				continue
			}
			_ = tr.Send(p, commit)
		}
	})
}

func encode(m wireMsg) []byte {
	buf, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("twopc: marshal: %v", err))
	}
	return buf
}
