package core

import (
	"fmt"

	"evsdb/internal/db"
	"evsdb/internal/types"
)

// dedupWindow bounds how many outcomes are retained per client. The
// window caps the replicated state at O(clients × window) while letting a
// client keep up to dedupWindow operations in flight concurrently;
// retries of operations that fell below the window are refused (never
// re-applied), so exactly-once degrades to at-most-once — the safe side.
const dedupWindow = 256

// DedupEntry is the recorded outcome of one globally ordered client
// action. A retry of the same (client, seq) returns this reply instead of
// applying the action again.
type DedupEntry struct {
	// GreenSeq is the global order position of the original apply.
	GreenSeq uint64 `json:"greenSeq"`
	// Err is the original deterministic abort, if the action aborted.
	Err string `json:"err,omitempty"`
	// Result is the original query answer, if the action carried a query.
	Result db.Result `json:"result,omitempty"`
}

// ClientSession is the per-client slice of the dedup table. It is part of
// the replicated state: every server derives it deterministically from
// the global green order (applyGreen records entries and prunes the
// window in green order), so sessions never need their own exchange round
// — green retransmission and § 5.2 catch-up snapshots equalize them.
type ClientSession struct {
	// Entries maps a client sequence number to its recorded outcome.
	Entries map[uint64]DedupEntry `json:"entries"`
	// MaxSeq is the highest sequence number ever recorded.
	MaxSeq uint64 `json:"maxSeq"`
	// Floor is the highest sequence number pruned from Entries: outcomes
	// at or below it are forgotten, and submissions at or below it are
	// refused rather than risk a second apply.
	Floor uint64 `json:"floor,omitempty"`
}

func (s *ClientSession) clone() *ClientSession {
	c := &ClientSession{MaxSeq: s.MaxSeq, Floor: s.Floor,
		Entries: make(map[uint64]DedupEntry, len(s.Entries))}
	for seq, e := range s.Entries {
		c.Entries[seq] = e
	}
	return c
}

// dedupKind classifies a keyed submission or green delivery against the
// dedup table.
type dedupKind int

const (
	dedupFresh     dedupKind = iota // never seen: apply normally
	dedupDuplicate                  // outcome recorded: answer with it
	dedupForgotten                  // below the window floor: refuse
)

// dedupLookup classifies (client, seq) against the replicated sessions.
func (e *Engine) dedupLookup(client string, seq uint64) (dedupKind, DedupEntry) {
	sess, ok := e.sessions[client]
	if !ok {
		return dedupFresh, DedupEntry{}
	}
	if ent, ok := sess.Entries[seq]; ok {
		return dedupDuplicate, ent
	}
	if seq <= sess.Floor {
		return dedupForgotten, DedupEntry{}
	}
	return dedupFresh, DedupEntry{}
}

// recordDedup stores the outcome of a freshly applied keyed action and
// prunes the session window. Runs in green order on every server, so the
// resulting sessions — including the pruning — are identical everywhere.
func (e *Engine) recordDedup(client string, seq uint64, ent DedupEntry) {
	sess, ok := e.sessions[client]
	if !ok {
		sess = &ClientSession{Entries: make(map[uint64]DedupEntry)}
		e.sessions[client] = sess
	}
	sess.Entries[seq] = ent
	if seq > sess.MaxSeq {
		sess.MaxSeq = seq
	}
	for len(sess.Entries) > dedupWindow {
		min := ^uint64(0)
		for s := range sess.Entries {
			if s < min {
				min = s
			}
		}
		delete(sess.Entries, min)
		if min > sess.Floor {
			sess.Floor = min
		}
	}
}

// dedupReply converts a dedup classification into the client's answer.
func dedupReply(kind dedupKind, ent DedupEntry) Reply {
	switch kind {
	case dedupDuplicate:
		return Reply{GreenSeq: ent.GreenSeq, Err: ent.Err, Result: ent.Result}
	default: // dedupForgotten
		return Reply{Err: fmt.Sprintf(
			"core: reply forgotten (sequence fell below the %d-entry dedup window); the action was not re-applied", dedupWindow)}
	}
}

// cloneSessions deep-copies the dedup table (snapshot construction).
func cloneSessions(in map[string]*ClientSession) map[string]*ClientSession {
	if len(in) == 0 {
		return nil
	}
	out := make(map[string]*ClientSession, len(in))
	for c, s := range in {
		out[c] = s.clone()
	}
	return out
}

// idemKey is a keyed action's idempotency key. It routes a same-node
// retry of a not yet green action to the original's pending reply
// (Engine.inflight), marks a relaxed key applied eagerly while red
// (Engine.eagerApplied), and keeps two copies of one key out of a fused
// green run.
type idemKey struct {
	Client string
	Seq    uint64
}

func (e *Engine) trackInflight(a types.Action, ch chan Reply) {
	e.pendingReply[a.ID] = append(e.pendingReply[a.ID], ch)
	if a.Client != "" {
		e.inflight[idemKey{a.Client, a.ClientSeq}] = a.ID
	}
}
