package core

import (
	"testing"
	"time"

	"evsdb/internal/db"
	"evsdb/internal/types"
)

// runToPrimWithActions builds an engine that has ordered n green actions
// in a primary spanning all servers (the peers are simulated).
func runToPrimWithActions(t *testing.T, id string, servers []string, n int) (*Engine, *fakeGC) {
	t.Helper()
	e, gc, _ := testEngine(t, id, servers...)
	exchangeToPrim(t, e, gc, conf(1, servers...), nil)
	for i := 1; i <= n; i++ {
		deliver(e, types.Action{
			ID:   types.ActionID{Server: types.ServerID(id), Index: uint64(i)},
			Type: types.ActionUpdate,
			Update: db.EncodeUpdate(
				db.Set("k", "v")),
		})
	}
	gc.take() // discard install-era traffic
	return e, gc
}

// TestExchangeRetransmitsGreensToStalePeer runs the full exchange flow
// between an up-to-date engine and a stale one: state messages both ways,
// the retransmission share captured from the updated engine and fed to
// the stale one, which must equalize and follow into Construct.
func TestExchangeRetransmitsGreensToStalePeer(t *testing.T) {
	servers := []string{"a", "b"}
	adv, advGC := runToPrimWithActions(t, "a", servers, 5)

	// The stale engine "b" never saw anything; its prim is the bootstrap.
	stale, staleGC, _ := testEngine(t, "b", servers...)

	// Both see the merge configuration.
	c2 := conf(2, "a", "b")
	adv.onRegConf(c2)
	stale.onRegConf(c2)

	var advState, staleState *stateMsg
	for _, m := range advGC.take() {
		if m.Kind == emState {
			advState = m.State
		}
	}
	for _, m := range staleGC.take() {
		if m.Kind == emState {
			staleState = m.State
		}
	}
	if advState == nil || staleState == nil {
		t.Fatal("missing state messages")
	}
	if advState.GreenCount != 5 || staleState.GreenCount != 0 {
		t.Fatalf("green counts: %d vs %d", advState.GreenCount, staleState.GreenCount)
	}

	// Deliver both state messages to both engines (total order).
	for _, e := range []*Engine{adv, stale} {
		e.onStateMsg(*advState)
		e.onStateMsg(*staleState)
	}
	// adv computed the plan and multicast its retransmission share.
	var retrans []retransMsg
	var advCPC *cpcMsg
	for _, m := range advGC.take() {
		switch m.Kind {
		case emRetrans:
			retrans = append(retrans, *m.Retrans)
		case emCPC:
			advCPC = m.CPC
		}
	}
	// The plan covers greens by position AND red ranges by creator index
	// (receivers are idempotent); exactly 5 green-tagged retransmissions
	// must appear, in order.
	var greens []retransMsg
	for _, r := range retrans {
		if r.Green {
			greens = append(greens, r)
		}
	}
	if len(greens) != 5 {
		t.Fatalf("retransmitted %d green actions, want 5 (total %d)", len(greens), len(retrans))
	}
	for i, r := range greens {
		if r.GreenSeq != uint64(i+1) {
			t.Fatalf("green retrans[%d] = %+v", i, r)
		}
	}
	if adv.st != Construct || advCPC == nil {
		t.Fatalf("adv state %v (cpc %v)", adv.st, advCPC)
	}

	// Feed the retransmissions to the stale engine: it equalizes and
	// reaches Construct, emitting its own CPC.
	for _, r := range retrans {
		stale.onRetrans(r)
	}
	if stale.queue.greenCount() != 5 {
		t.Fatalf("stale green count %d", stale.queue.greenCount())
	}
	if stale.st != Construct {
		t.Fatalf("stale state %v", stale.st)
	}
	var staleCPC *cpcMsg
	for _, m := range staleGC.take() {
		if m.Kind == emCPC {
			staleCPC = m.CPC
		}
	}
	if staleCPC == nil {
		t.Fatal("stale engine never sent its CPC")
	}

	// Complete installation at both; their green orders must agree.
	for _, e := range []*Engine{adv, stale} {
		e.onCPC(*advCPC)
		e.onCPC(*staleCPC)
		if e.st != RegPrim {
			t.Fatalf("%s: state %v", e.id, e.st)
		}
	}
	if adv.queue.greenCount() != stale.queue.greenCount() {
		t.Fatalf("green counts diverge: %d vs %d", adv.queue.greenCount(), stale.queue.greenCount())
	}
	for i := uint64(1); i <= adv.queue.greenCount(); i++ {
		x, _ := adv.queue.greenAt(i)
		y, _ := stale.queue.greenAt(i)
		if x.ID != y.ID {
			t.Fatalf("green order diverges at %d: %v vs %v", i, x.ID, y.ID)
		}
	}
}

// TestGreenRetransOutOfOrderIsBuffered delivers green retransmissions out
// of order; the engine must buffer and apply them in sequence.
func TestGreenRetransOutOfOrderIsBuffered(t *testing.T) {
	servers := []string{"a", "b"}
	adv, advGC := runToPrimWithActions(t, "a", servers, 3)
	_ = advGC

	stale, staleGC, _ := testEngine(t, "b", servers...)
	c2 := conf(2, "a", "b")
	stale.onRegConf(c2)
	var staleState *stateMsg
	for _, m := range staleGC.take() {
		if m.Kind == emState {
			staleState = m.State
		}
	}
	advState := adv.buildStateMsg()
	advState.Conf = c2.ID
	stale.onStateMsg(advState)
	stale.onStateMsg(*staleState)

	var msgs []retransMsg
	for i := uint64(1); i <= 3; i++ {
		a, _ := adv.queue.greenAt(i)
		msgs = append(msgs, retransMsg{Action: a, Green: true, GreenSeq: i})
	}
	// Reverse order: 3, 2, 1.
	stale.onRetrans(msgs[2])
	if stale.queue.greenCount() != 0 {
		t.Fatal("future green applied early")
	}
	stale.onRetrans(msgs[1])
	stale.onRetrans(msgs[0])
	if stale.queue.greenCount() != 3 {
		t.Fatalf("green count %d after drain", stale.queue.greenCount())
	}
}

// TestBufferedClientRequestsFlushAfterExchange: requests submitted during
// an exchange are buffered and generated together once the engine settles
// (paper Handle_buff_requests).
func TestBufferedClientRequestsFlushAfterExchange(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a", "b", "c")
	c1 := conf(1, "a", "b", "c")
	e.onRegConf(c1)
	// Mid-exchange: submissions buffer.
	for i := 0; i < 3; i++ {
		submitOne(e, submitReq{
			action: types.Action{Type: types.ActionUpdate, Update: db.EncodeUpdate(db.Set("x", "y"))},
			ch:     make(chan Reply, 1),
		})
	}
	if len(e.buffered) != 3 {
		t.Fatalf("buffered %d", len(e.buffered))
	}
	gc.take()
	// Finish the exchange without quorum (1 of 3 responding... supply all
	// states so it settles to NonPrim is impossible here — with all three
	// states and bootstrap prim {a,b,c}, a 3-member conf has quorum. Use
	// the full path and verify the flush happens on RegPrim entry.
	var mine *stateMsg
	e.onStateMsg(func() stateMsg {
		s := e.buildStateMsg()
		return s
	}())
	for _, peer := range []types.ServerID{"b", "c"} {
		e.onStateMsg(stateMsg{Server: peer, Conf: c1.ID, RedCut: map[types.ServerID]uint64{}, Prim: e.prim})
	}
	_ = mine
	if e.st != Construct {
		t.Fatalf("state %v", e.st)
	}
	// Requests remain buffered through Construct.
	if len(e.buffered) != 3 {
		t.Fatalf("buffered %d in Construct", len(e.buffered))
	}
	for _, m := range []string{"a", "b", "c"} {
		e.onCPC(cpcMsg{Server: types.ServerID(m), Conf: c1.ID})
	}
	if e.st != RegPrim {
		t.Fatalf("state %v", e.st)
	}
	if len(e.buffered) != 0 {
		t.Fatalf("buffered %d after install", len(e.buffered))
	}
	if e.actionIndex != 3 {
		t.Fatalf("actionIndex %d", e.actionIndex)
	}
	// All three actions went to the ongoing queue awaiting delivery.
	if len(e.ongoing) != 3 {
		t.Fatalf("ongoing %d", len(e.ongoing))
	}
}

// TestJoinLeaveHandlersDirect drives the § 5.1 handlers synchronously.
func TestJoinLeaveHandlersDirect(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a")
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)
	deliver(e, types.Action{ID: types.ActionID{Server: "a", Index: 1}, Type: types.ActionUpdate,
		Update: db.EncodeUpdate(db.Set("seed", "1"))})
	e.actionIndex = 1
	gc.take()

	// Join request: the engine creates a PERSISTENT_JOIN action.
	ch := make(chan joinResp, 1)
	e.handleJoinRequest(joinReq{joiner: "z", ch: ch})
	msgs := gc.take()
	var joinAct *types.Action
	for _, m := range msgs {
		if m.Kind == emBatch && m.Batch[0].Type == types.ActionJoin {
			joinAct = &m.Batch[0]
		}
	}
	if joinAct == nil || joinAct.Target != "z" {
		t.Fatalf("no join action: %+v", msgs)
	}
	// Deliver it (singleton primary: immediately green).
	deliver(e, *joinAct)
	select {
	case resp := <-ch:
		if resp.err != nil {
			t.Fatal(resp.err)
		}
		if resp.snap.GreenCount != 2 {
			t.Fatalf("snapshot green count %d", resp.snap.GreenCount)
		}
		if !containsServer(resp.snap.Servers, "z") || !containsServer(resp.snap.Servers, "a") {
			t.Fatalf("snapshot servers %v", resp.snap.Servers)
		}
	default:
		t.Fatal("join waiter not fulfilled")
	}
	if !e.serverSet["z"] {
		t.Fatal("server set missing joiner")
	}
	// A duplicate join request returns a snapshot immediately.
	ch2 := make(chan joinResp, 1)
	e.handleJoinRequest(joinReq{joiner: "z", ch: ch2})
	select {
	case resp := <-ch2:
		if resp.err != nil || resp.snap == nil {
			t.Fatalf("duplicate join: %+v", resp)
		}
	default:
		t.Fatal("duplicate join not answered immediately")
	}

	// Leave: the engine orders a PERSISTENT_LEAVE for itself.
	errCh := make(chan error, 1)
	e.handleLeave(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	var leaveAct *types.Action
	for _, m := range gc.take() {
		if m.Kind == emBatch && m.Batch[0].Type == types.ActionLeave {
			leaveAct = &m.Batch[0]
		}
	}
	if leaveAct == nil || leaveAct.Target != "a" {
		t.Fatal("no leave action generated")
	}
	deliver(e, *leaveAct)
	if !e.left {
		t.Fatal("engine did not mark itself departed")
	}
	if e.serverSet["a"] {
		t.Fatal("server set still contains the departed replica")
	}
}

func containsServer(ids []types.ServerID, want types.ServerID) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// TestQueryFastPath: strict query-only requests in the primary are
// answered without generating an ordered action (§ 6), but only after
// every earlier local action has applied.
func TestQueryFastPath(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a")
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)
	gc.take()

	// No pending local actions: the query answers immediately and sends
	// no group traffic.
	ch := make(chan Reply, 1)
	submitOne(e, submitReq{
		action: types.Action{Type: types.ActionQuery, Semantics: types.SemStrict, Query: db.Get("x")},
		ch:     ch,
	})
	select {
	case r := <-ch:
		if r.Err != "" || r.Result.Found {
			t.Fatalf("empty-db query: %+v", r)
		}
	default:
		t.Fatal("fast-path query did not answer immediately")
	}
	if msgs := gc.take(); len(msgs) != 0 {
		t.Fatalf("fast-path query generated traffic: %+v", msgs)
	}

	// With a pending local update, the query waits for it.
	updCh := make(chan Reply, 1)
	submitOne(e, submitReq{
		action: types.Action{Type: types.ActionUpdate, Update: db.EncodeUpdate(db.Set("x", "1"))},
		ch:     updCh,
	})
	qCh := make(chan Reply, 1)
	submitOne(e, submitReq{
		action: types.Action{Type: types.ActionQuery, Semantics: types.SemStrict, Query: db.Get("x")},
		ch:     qCh,
	})
	select {
	case <-qCh:
		t.Fatal("query answered before the pending update applied")
	default:
	}
	// Deliver the pending update (self-delivery through the group).
	deadline := 0
	for {
		msgs := gc.take()
		done := false
		for _, m := range msgs {
			if m.Kind == emBatch {
				deliver(e, m.Batch...)
				done = true
			}
		}
		if done {
			break
		}
		if deadline++; deadline > 100 {
			t.Fatal("update never multicast")
		}
		// The multicast happens on the sync writer; give it a moment.
		timeSleep()
	}
	select {
	case r := <-qCh:
		if r.Result.Value != "1" {
			t.Fatalf("query answer %+v does not reflect the earlier update", r)
		}
	default:
		t.Fatal("query not released after the update applied")
	}
}

func timeSleep() { time.Sleep(time.Millisecond) }
