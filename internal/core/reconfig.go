package core

import (
	"fmt"

	"evsdb/internal/types"
)

// JoinSnapshot is the state a joining replica restores before it starts
// executing the replication algorithm (paper CodeSegment 5.2): the
// database as of the PERSISTENT_JOIN action's global position, plus the
// engine metadata that position implies.
type JoinSnapshot struct {
	// DB is the database snapshot.
	DB []byte `json:"db"`
	// Servers is the replica set including the joiner.
	Servers []types.ServerID `json:"servers"`
	// GreenCount is the joiner's starting green line: the global position
	// the snapshot corresponds to.
	GreenCount uint64 `json:"greenCount"`
	// OrderedIdx seeds the joiner's red cut: for each creator, the
	// highest action index incorporated in the snapshot. Earlier actions
	// are "inherited" (Theorem 2's dynamic clause), never retransmitted.
	OrderedIdx map[types.ServerID]uint64 `json:"orderedIdx"`
	// GreenKnown seeds the joiner's green-line knowledge.
	GreenKnown map[types.ServerID]uint64 `json:"greenKnown"`
	// Prim is the last primary component known at the snapshot point.
	Prim PrimComponent `json:"prim"`
	// Clients is the replicated dedup table at the snapshot point. Like
	// the database it is a deterministic function of the green prefix, so
	// a restoring server adopts it wholesale.
	Clients map[string]*ClientSession `json:"clients,omitempty"`
}

// buildJoinSnapshot captures the current green state for a joiner.
func (e *Engine) buildJoinSnapshot() *JoinSnapshot {
	servers := make([]types.ServerID, 0, len(e.serverSet))
	for s := range e.serverSet {
		servers = append(servers, s)
	}
	types.SortServerIDs(servers)
	ordered := make(map[types.ServerID]uint64, len(e.orderedIdx))
	for s, v := range e.orderedIdx {
		ordered[s] = v
	}
	known := make(map[types.ServerID]uint64, len(e.greenKnown))
	for s, v := range e.greenKnown {
		known[s] = v
	}
	return &JoinSnapshot{
		DB:         e.db.Snapshot(),
		Servers:    servers,
		GreenCount: e.queue.greenCount(),
		OrderedIdx: ordered,
		GreenKnown: known,
		Prim: PrimComponent{
			PrimIndex:    e.prim.PrimIndex,
			AttemptIndex: e.prim.AttemptIndex,
			Servers:      append([]types.ServerID(nil), e.prim.Servers...),
		},
		Clients: cloneSessions(e.sessions),
	}
}

// restoreSnapshot initializes engine state from a join snapshot (also
// used by checkpoint replay).
func (e *Engine) restoreSnapshot(snap *JoinSnapshot) error {
	if err := e.db.Restore(snap.DB); err != nil {
		return fmt.Errorf("restore database: %w", err)
	}
	e.queue = newActionsQueue()
	e.queue.base = snap.GreenCount
	e.serverSet = make(map[types.ServerID]bool, len(snap.Servers))
	for _, s := range snap.Servers {
		e.serverSet[s] = true
	}
	e.redCut = make(map[types.ServerID]uint64, len(snap.OrderedIdx))
	e.orderedIdx = make(map[types.ServerID]uint64, len(snap.OrderedIdx))
	for s, v := range snap.OrderedIdx {
		e.redCut[s] = v
		e.orderedIdx[s] = v
	}
	e.greenKnown = make(map[types.ServerID]uint64, len(snap.GreenKnown))
	for s, v := range snap.GreenKnown {
		e.greenKnown[s] = v
	}
	e.greenKnown[e.id] = snap.GreenCount
	e.prim = snap.Prim
	e.sessions = make(map[string]*ClientSession, len(snap.Clients))
	for c, s := range snap.Clients {
		e.sessions[c] = s.clone()
	}
	// The green order below the snapshot point is inherited, not recorded:
	// the observable history restarts at the snapshot's green line.
	e.histMu.Lock()
	e.history = nil
	e.histBase = snap.GreenCount
	e.histMu.Unlock()
	return nil
}

// NewFromJoin assembles a replica that joins the running system from a
// snapshot obtained via RequestJoin on an existing member (paper
// CodeSegment 5.2): restore, set the green line to the join position,
// start in NonPrim, and begin executing the algorithm.
func NewFromJoin(cfg Config, snap *JoinSnapshot) (*Engine, error) {
	if snap == nil {
		return nil, fmt.Errorf("core: nil join snapshot")
	}
	cfg.Recover = false
	if len(cfg.Servers) == 0 {
		cfg.Servers = snap.Servers
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.restoreSnapshot(snap); err != nil {
		return nil, err
	}
	// Persist the bootstrap state so a crash during catch-up recovers.
	e.appendLog(logRecord{Kind: recCheckpoint, Snap: snap})
	e.persistState()
	e.syncLog("join-bootstrap")
	go e.run()
	return e, nil
}

// applyJoin processes a green PERSISTENT_JOIN action (paper CodeSegment
// 5.1 MarkGreen lines 5–10).
func (e *Engine) applyJoin(a types.Action, seq uint64) {
	target := a.Target
	if target == "" {
		return
	}
	if !e.serverSet[target] {
		e.serverSet[target] = true
		// The joiner's green line is the join action itself: everything
		// before it is incorporated in the transferred database.
		e.greenKnown[target] = seq
	}
	e.reply(a.ID, Reply{GreenSeq: seq})
	e.releaseQueries(a.ID)
	if a.ID.Server == e.id {
		// This server is the joiner's representative: the snapshot is
		// taken exactly at the join action's position (paper line 9–10:
		// "start database transfer to joining site").
		snap := e.buildJoinSnapshot()
		for _, ch := range e.joinWaiters[target] {
			ch <- joinResp{snap: snap}
		}
		delete(e.joinWaiters, target)
	}
}

// applyLeave processes a green PERSISTENT_LEAVE action (paper CodeSegment
// 5.1 lines 11–13).
func (e *Engine) applyLeave(a types.Action) {
	target := a.Target
	if target == "" {
		return
	}
	if e.serverSet[target] {
		delete(e.serverSet, target)
		delete(e.greenKnown, target)
		// The red cut for the departed id is retained: it still guards
		// FIFO acceptance of any stray retransmissions of its actions.
	}
	e.reply(a.ID, Reply{})
	e.releaseQueries(a.ID)
	if target == e.id {
		e.left = true
		// Answer anything still pending; this replica is done.
		for id, chans := range e.pendingReply {
			for _, ch := range chans {
				ch <- Reply{Err: ErrLeft.Error(), Retryable: true}
			}
			delete(e.pendingReply, id)
		}
		e.inflight = make(map[idemKey]types.ActionID)
	}
}

// handleJoinRequest implements the representative side of a join (paper
// CodeSegment 5.1 lines 16–21).
func (e *Engine) handleJoinRequest(req joinReq) {
	if e.left {
		req.ch <- joinResp{err: ErrLeft}
		return
	}
	switch e.st {
	case RegPrim, NonPrim:
		if e.serverSet[req.joiner] {
			// The join action is already ordered; transfer the current
			// state (any green point at or after the join works: the
			// joiner inherits strictly more).
			req.ch <- joinResp{snap: e.buildJoinSnapshot()}
			return
		}
		e.actionIndex++
		a := types.Action{
			ID:     types.ActionID{Server: e.id, Index: e.actionIndex},
			Type:   types.ActionJoin,
			Target: req.joiner,
		}
		a.GreenLine = e.queue.greenCount()
		e.ongoing[a.ID] = a
		e.appendLog(logRecord{Kind: recOngoingBatch, Actions: []types.Action{a}})
		e.syncLog("join")
		e.joinWaiters[req.joiner] = append(e.joinWaiters[req.joiner], req.ch)
		e.generateSynced(a)
	default:
		e.pendingJoins = append(e.pendingJoins, req)
	}
}

// processPendingJoins retries joins deferred during an exchange.
func (e *Engine) processPendingJoins() {
	if len(e.pendingJoins) == 0 {
		return
	}
	pend := e.pendingJoins
	e.pendingJoins = nil
	for _, req := range pend {
		e.handleJoinRequest(req)
	}
}

// handleLeave starts this replica's permanent departure (paper CodeSegment
// 5.1 lines 22–24).
func (e *Engine) handleLeave(ch chan error) {
	if e.left {
		ch <- ErrLeft
		return
	}
	switch e.st {
	case RegPrim, NonPrim:
		e.actionIndex++
		a := types.Action{
			ID:     types.ActionID{Server: e.id, Index: e.actionIndex},
			Type:   types.ActionLeave,
			Target: e.id,
		}
		a.GreenLine = e.queue.greenCount()
		e.ongoing[a.ID] = a
		e.appendLog(logRecord{Kind: recOngoingBatch, Actions: []types.Action{a}})
		e.syncLog("leave")
		e.generateSynced(a)
		ch <- nil
	default:
		ch <- fmt.Errorf("core: cannot leave during %v; retry", e.st)
	}
}
