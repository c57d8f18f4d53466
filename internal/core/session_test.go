package core

import (
	"errors"
	"testing"

	"evsdb/internal/db"
	"evsdb/internal/types"
)

// submitKeyed drives a keyed client submission through the unstarted
// engine and returns its reply channel plus the action the engine
// generated (zero action if none was generated — dedup fast path).
func submitKeyed(e *Engine, client string, seq uint64, update []byte) (chan Reply, types.Action) {
	before := e.actionIndex
	ch := make(chan Reply, 1)
	submitOne(e, submitReq{
		action: types.Action{
			Type:      types.ActionUpdate,
			Client:    client,
			ClientSeq: seq,
			Update:    update,
		},
		ch: ch,
	})
	if e.actionIndex == before {
		return ch, types.Action{}
	}
	a, ok := e.ongoing[types.ActionID{Server: e.id, Index: e.actionIndex}]
	if !ok {
		return ch, types.Action{}
	}
	return ch, a
}

func mustReply(t *testing.T, ch chan Reply) Reply {
	t.Helper()
	select {
	case r := <-ch:
		return r
	default:
		t.Fatal("no reply pending")
		return Reply{}
	}
}

// TestKeyedRetryAfterGreenReturnsOriginalReply: a retry of a (client,
// seq) whose action already turned green answers from the dedup table —
// same green position, no second apply, no new action generated.
func TestKeyedRetryAfterGreenReturnsOriginalReply(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a")
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)

	ch, a := submitKeyed(e, "c1", 1, db.EncodeUpdate(db.Add("ctr", 1)))
	if a.ID.Zero() {
		t.Fatal("no action generated for fresh key")
	}
	deliver(e, a)
	first := mustReply(t, ch)
	if first.Err != "" || first.GreenSeq != 1 {
		t.Fatalf("first reply %+v", first)
	}

	ch2, a2 := submitKeyed(e, "c1", 1, db.EncodeUpdate(db.Add("ctr", 1)))
	if !a2.ID.Zero() {
		t.Fatal("retry generated a second action")
	}
	second := mustReply(t, ch2)
	if second.GreenSeq != first.GreenSeq || second.Err != "" {
		t.Fatalf("retry reply %+v != original %+v", second, first)
	}
	if res, err := e.db.QueryGreen(db.Get("ctr")); err != nil || res.Value != "1" {
		t.Fatalf("counter applied %v times (err %v)", res.Value, err)
	}
	if e.metricsSnapshot().Duplicates != 1 {
		t.Fatalf("duplicates metric %d", e.metricsSnapshot().Duplicates)
	}
}

// TestKeyedRetryWhileInFlightAttaches: a same-node retry of an action
// still awaiting its global order attaches to the original's pending
// reply; both channels observe the single outcome.
func TestKeyedRetryWhileInFlightAttaches(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a")
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)

	ch1, a := submitKeyed(e, "c1", 7, db.EncodeUpdate(db.Add("ctr", 1)))
	ch2, a2 := submitKeyed(e, "c1", 7, db.EncodeUpdate(db.Add("ctr", 1)))
	if !a2.ID.Zero() {
		t.Fatal("in-flight retry generated a second action")
	}
	deliver(e, a)
	r1, r2 := mustReply(t, ch1), mustReply(t, ch2)
	if r1.GreenSeq != r2.GreenSeq || r1.GreenSeq != 1 {
		t.Fatalf("replies disagree: %+v vs %+v", r1, r2)
	}
	if res, _ := e.db.QueryGreen(db.Get("ctr")); res.Value != "1" {
		t.Fatalf("counter %q, want 1", res.Value)
	}
}

// TestDuplicateGreenAcrossActionIDs: the same idempotency key arriving as
// two distinct actions (a cross-replica retry after failover) applies
// only once even though both copies enter the green order.
func TestDuplicateGreenAcrossActionIDs(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a", "b")
	c := conf(1, "a", "b")
	exchangeToPrim(t, e, gc, c, nil)

	upd := db.EncodeUpdate(db.Add("ctr", 1))
	deliver(e, types.Action{
		ID: types.ActionID{Server: "a", Index: 1}, Type: types.ActionUpdate,
		Client: "c1", ClientSeq: 3, Update: upd,
	})
	deliver(e, types.Action{
		ID: types.ActionID{Server: "b", Index: 1}, Type: types.ActionUpdate,
		Client: "c1", ClientSeq: 3, Update: upd,
	})
	if e.queue.greenCount() != 2 {
		t.Fatalf("green count %d", e.queue.greenCount())
	}
	if res, _ := e.db.QueryGreen(db.Get("ctr")); res.Value != "1" {
		t.Fatalf("counter %q, want 1 (duplicate applied)", res.Value)
	}
	if e.metricsSnapshot().Duplicates != 1 {
		t.Fatalf("duplicates metric %d", e.metricsSnapshot().Duplicates)
	}
}

// TestDedupWindowFloor: outcomes pruned past the window are refused
// (dedupForgotten) rather than re-applied; fresh seqs above the floor
// still work, including out-of-order ones within the window.
func TestDedupWindowFloor(t *testing.T) {
	e, _, _ := testEngine(t, "a", "a")
	for seq := uint64(1); seq <= dedupWindow+10; seq++ {
		e.recordDedup("c1", seq, DedupEntry{GreenSeq: seq})
	}
	sess := e.sessions["c1"]
	if len(sess.Entries) != dedupWindow {
		t.Fatalf("window size %d", len(sess.Entries))
	}
	if sess.Floor != 10 {
		t.Fatalf("floor %d, want 10", sess.Floor)
	}
	if kind, _ := e.dedupLookup("c1", 5); kind != dedupForgotten {
		t.Fatalf("pruned seq classified %v", kind)
	}
	if kind, _ := e.dedupLookup("c1", 11); kind != dedupDuplicate {
		t.Fatalf("retained seq classified %v", kind)
	}
	if kind, _ := e.dedupLookup("c1", dedupWindow+1000); kind != dedupFresh {
		t.Fatalf("future seq classified %v", kind)
	}
	r := dedupReply(dedupForgotten, DedupEntry{})
	if r.Err == "" || r.Retryable {
		t.Fatalf("forgotten reply %+v must be a non-retryable error", r)
	}
}

// TestOverloadBudget: once the in-flight budget is exhausted further
// submissions answer immediately with a retryable overload error.
func TestOverloadBudget(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a")
	e.maxInFlight = 2
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)

	_, a1 := submitKeyed(e, "", 0, db.EncodeUpdate(db.Set("k1", "v")))
	_, a2 := submitKeyed(e, "", 0, db.EncodeUpdate(db.Set("k2", "v")))
	if a1.ID.Zero() || a2.ID.Zero() {
		t.Fatal("first two submissions refused under budget")
	}
	ch3, a3 := submitKeyed(e, "", 0, db.EncodeUpdate(db.Set("k3", "v")))
	if !a3.ID.Zero() {
		t.Fatal("over-budget submission generated an action")
	}
	r := mustReply(t, ch3)
	if !r.Retryable || !errors.Is(r.Failure(), ErrRetryable) {
		t.Fatalf("overload reply %+v not retryable", r)
	}
	if e.metricsSnapshot().Overloads != 1 {
		t.Fatalf("overloads metric %d", e.metricsSnapshot().Overloads)
	}
	// A keyed retry of an in-flight action still attaches over budget:
	// it consumes no new budget.
	_ = ch3
}

// TestReplyFailureTaxonomy: Reply.Failure maps to the typed error
// classes callers branch on.
func TestReplyFailureTaxonomy(t *testing.T) {
	if (Reply{}).Failure() != nil {
		t.Fatal("success reply reported a failure")
	}
	if !errors.Is((Reply{Err: "x", Retryable: true}).Failure(), ErrRetryable) {
		t.Fatal("retryable reply not ErrRetryable")
	}
	abort := (Reply{Err: "x"}).Failure()
	if !errors.Is(abort, ErrAborted) || errors.Is(abort, ErrRetryable) {
		t.Fatalf("abort reply misclassified: %v", abort)
	}
}

// TestSnapshotCarriesSessions: the join snapshot carries the dedup table
// so a joiner (or catch-up laggard) refuses duplicates for keys it never
// saw green itself.
func TestSnapshotCarriesSessions(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a")
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)
	ch, a := submitKeyed(e, "c9", 4, db.EncodeUpdate(db.Add("ctr", 1)))
	deliver(e, a)
	orig := mustReply(t, ch)

	snap := e.buildJoinSnapshot()
	if snap.Clients == nil || snap.Clients["c9"] == nil {
		t.Fatal("snapshot missing client sessions")
	}

	e2, _, _ := testEngine(t, "b", "a", "b")
	if err := e2.restoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	kind, ent := e2.dedupLookup("c9", 4)
	if kind != dedupDuplicate || ent.GreenSeq != orig.GreenSeq {
		t.Fatalf("restored lookup %v %+v, want duplicate at %d", kind, ent, orig.GreenSeq)
	}
	// Mutating the restored copy must not alias the source.
	e2.recordDedup("c9", 5, DedupEntry{GreenSeq: 99})
	if _, ok := e.sessions["c9"].Entries[5]; ok {
		t.Fatal("restored sessions alias the snapshot source")
	}
}

// settleNonPrim takes e through an exchange in c that ends in NonPrim: a
// vulnerable peer blocks the quorum (same setup as
// TestVulnerablePeerBlocksQuorum), so relaxed actions apply eagerly while
// red.
func settleNonPrim(t *testing.T, e *Engine, gc *fakeGC, c types.Configuration) {
	t.Helper()
	e.onRegConf(c)
	var mine *stateMsg
	for _, m := range gc.take() {
		if m.Kind == emState {
			mine = m.State
		}
	}
	e.onStateMsg(*mine)
	e.onStateMsg(stateMsg{
		Server: "b", Conf: c.ID, RedCut: map[types.ServerID]uint64{},
		Prim: e.prim,
		Vuln: Vulnerable{
			Status: true, PrimIndex: 0, AttemptIndex: 9,
			Set:  []types.ServerID{"b", "d"},
			Bits: map[types.ServerID]bool{"b": true},
		},
	})
	e.onStateMsg(stateMsg{Server: "c", Conf: c.ID, RedCut: map[types.ServerID]uint64{}, Prim: e.prim})
	if e.st != NonPrim {
		t.Fatalf("state %v, want NonPrim", e.st)
	}
}

// relaxedRetryCopies delivers two red copies of one relaxed keyed Add,
// under the action ids a:1 and b:1 (a cross-component retry).
func relaxedRetryCopies(e *Engine) {
	upd := db.EncodeUpdate(db.Add("ctr", 1))
	deliver(e, types.Action{
		ID: types.ActionID{Server: "a", Index: 1}, Type: types.ActionUpdate,
		Semantics: types.SemCommutative, Client: "c1", ClientSeq: 2, Update: upd,
	})
	deliver(e, types.Action{
		ID: types.ActionID{Server: "b", Index: 1}, Type: types.ActionUpdate,
		Semantics: types.SemCommutative, Client: "c1", ClientSeq: 2, Update: upd,
	})
}

// TestRelaxedEagerRetryAcrossIDs: a relaxed-semantics key applied
// eagerly while red under one action id is not re-applied when a second
// copy (different id, same key) arrives, nor when either copy greens.
func TestRelaxedEagerRetryAcrossIDs(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a", "b", "c")
	settleNonPrim(t, e, gc, conf(1, "a", "b", "c"))
	relaxedRetryCopies(e)
	if res, _ := e.db.QueryDirty(db.Get("ctr")); res.Value != "1" {
		t.Fatalf("eager counter %q, want 1", res.Value)
	}
}

// TestReplayAppliesRelaxedRetryOnce: WAL replay redoes eager applies under
// the live rule, so the second red copy of a relaxed key is skipped there
// too. An engine recovered from the log of TestRelaxedEagerRetryAcrossIDs
// must hold the key's effect once, after replay and after both copies
// turn green.
func TestReplayAppliesRelaxedRetryOnce(t *testing.T) {
	e, gc, log := testEngine(t, "a", "a", "b", "c")
	settleNonPrim(t, e, gc, conf(1, "a", "b", "c"))
	relaxedRetryCopies(e)

	gc = newFakeGC()
	r, err := newEngine(Config{ID: "a", Servers: []types.ServerID{"a", "b", "c"}, GC: gc, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.recover(); err != nil {
		t.Fatal(err)
	}
	if res, _ := r.db.QueryDirty(db.Get("ctr")); res.Value != "1" {
		t.Fatalf("after replay ctr=%q, want 1", res.Value)
	}
	exchangeToPrim(t, r, gc, conf(2, "a", "b", "c"), nil)
	if r.queue.greenCount() != 2 {
		t.Fatalf("green count %d, want 2", r.queue.greenCount())
	}
	if res, _ := r.db.QueryGreen(db.Get("ctr")); res.Value != "1" {
		t.Fatalf("after both copies turned green ctr=%q, want 1", res.Value)
	}
}
