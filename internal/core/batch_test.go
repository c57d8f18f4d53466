package core

import (
	"fmt"
	"testing"

	"evsdb/internal/db"
	"evsdb/internal/storage"
	"evsdb/internal/types"
)

// setAction builds a plain strict update action from server "a".
func setAction(idx uint64, key, value string) types.Action {
	return types.Action{
		ID:     types.ActionID{Server: "a", Index: idx},
		Type:   types.ActionUpdate,
		Update: db.EncodeUpdate(db.Set(key, value)),
	}
}

// TestBatchAppliesLikeSequential pins the batching pipeline's core
// contract: delivering one bundle of n actions produces exactly the state
// that n bundles of one would have.
func TestBatchAppliesLikeSequential(t *testing.T) {
	batched, gcB, _ := testEngine(t, "a", "a")
	exchangeToPrim(t, batched, gcB, conf(1, "a"), nil)
	sequential, gcS, _ := testEngine(t, "a", "a")
	exchangeToPrim(t, sequential, gcS, conf(1, "a"), nil)

	acts := make([]types.Action, 6)
	for i := range acts {
		acts[i] = setAction(uint64(i+1), fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i))
	}
	deliver(batched, acts...)
	for _, a := range acts {
		deliver(sequential, a)
	}

	if g, s := batched.queue.greenCount(), sequential.queue.greenCount(); g != s || g != uint64(len(acts)) {
		t.Fatalf("green counts diverge: batched %d, sequential %d", g, s)
	}
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		rb, _ := batched.db.QueryGreen(db.Get(key))
		rs, _ := sequential.db.QueryGreen(db.Get(key))
		if rb.Value != rs.Value {
			t.Fatalf("db diverges on %s: batched %q, sequential %q", key, rb.Value, rs.Value)
		}
	}
	if len(batched.history) != len(sequential.history) {
		t.Fatalf("history lengths diverge: %d vs %d", len(batched.history), len(sequential.history))
	}
	for i := range batched.history {
		if batched.history[i] != sequential.history[i] {
			t.Fatalf("history diverges at %d: %v vs %v", i, batched.history[i], sequential.history[i])
		}
	}
}

// TestBatchSameKeyDedupedWithinBatch: two copies of one idempotency key
// inside one bundle. The second copy must observe the first copy's dedup
// entry — apply once, both green.
func TestBatchSameKeyDedupedWithinBatch(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a")
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)

	first := setAction(1, "x", "first")
	first.Client, first.ClientSeq = "c1", 7
	second := setAction(2, "x", "second")
	second.Client, second.ClientSeq = "c1", 7

	e.onActionBatch([]types.Action{first, second})

	if e.queue.greenCount() != 2 {
		t.Fatalf("green count %d, want 2 (duplicate keeps its position)", e.queue.greenCount())
	}
	res, _ := e.db.QueryGreen(db.Get("x"))
	if res.Value != "first" {
		t.Fatalf("duplicate applied: x=%q, want %q", res.Value, "first")
	}
	kind, ent := e.dedupLookup("c1", 7)
	if kind == dedupFresh {
		t.Fatal("no dedup entry recorded for the fused key")
	}
	if ent.GreenSeq != 1 {
		t.Fatalf("dedup entry points at green seq %d, want 1 (the first copy)", ent.GreenSeq)
	}
	if e.metricsSnapshot().Duplicates != 1 {
		t.Fatalf("duplicates metric %d, want 1", e.metricsSnapshot().Duplicates)
	}
}

// TestBatchComplexActionFlushesRun: a non-plain action in the middle of
// a bundle must see every earlier update applied and every later update
// not yet applied — the fused runs flush around it.
func TestBatchComplexActionFlushesRun(t *testing.T) {
	e, gc, _ := testEngine(t, "a", "a")
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)

	query := types.Action{
		ID:    types.ActionID{Server: "a", Index: 2},
		Type:  types.ActionQuery,
		Query: db.Get("k"),
	}
	done := make(chan Reply, 1)
	e.pendingReply[query.ID] = append(e.pendingReply[query.ID], done)

	e.onActionBatch([]types.Action{
		setAction(1, "k", "before"),
		query,
		setAction(3, "k", "after"),
	})

	if e.queue.greenCount() != 3 {
		t.Fatalf("green count %d, want 3", e.queue.greenCount())
	}
	select {
	case r := <-done:
		if r.Result.Value != "before" {
			t.Fatalf("query reply %+v, want value %q (runs must flush in order)", r, "before")
		}
	default:
		t.Fatal("no reply delivered for the in-batch query")
	}
	res, _ := e.db.QueryGreen(db.Get("k"))
	if res.Value != "after" {
		t.Fatalf("final db state k=%q, want %q", res.Value, "after")
	}
}

// TestBatchNonPrimStaysRed: a bundle delivered outside the primary
// component is accepted red — ordered, logged, not applied.
func TestBatchNonPrimStaysRed(t *testing.T) {
	e, _, _ := testEngine(t, "a", "a", "b")
	if e.st != NonPrim {
		t.Fatalf("fresh engine state %v", e.st)
	}
	acts := []types.Action{setAction(1, "k", "1"), setAction(2, "k", "2")}
	e.onActionBatch(acts)
	if e.queue.greenCount() != 0 {
		t.Fatalf("green count %d in NonPrim", e.queue.greenCount())
	}
	for _, a := range acts {
		if !e.queue.has(a.ID) {
			t.Fatalf("action %v not in the red zone", a.ID)
		}
	}
	if e.redCut["a"] != 2 {
		t.Fatalf("red cut %d, want 2", e.redCut["a"])
	}
}

// TestBatchWALReplay: the batch WAL records (recRedBatch, recGreenBatch,
// recOngoingBatch) must replay to the state live delivery produced.
func TestBatchWALReplay(t *testing.T) {
	gc := newFakeGC()
	log := storage.NewMemLog(storage.Options{Policy: storage.SyncNone})
	cfg := Config{ID: "a", Servers: []types.ServerID{"a"}, GC: gc, Log: log}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)

	// One bundle -> one recRedBatch and one recGreenBatch.
	e.onActionBatch([]types.Action{
		setAction(1, "k", "1"),
		{ID: types.ActionID{Server: "a", Index: 2}, Type: types.ActionUpdate,
			Update: db.EncodeUpdate(db.Add("n", 5))},
		setAction(3, "k", "3"),
	})
	e.actionIndex = 3
	// A batched submission whose multicast never reached anyone: the
	// recOngoingBatch record must re-mark every member red on recovery.
	orphans := []types.Action{
		{ID: types.ActionID{Server: "a", Index: 4}, Type: types.ActionUpdate,
			Update: db.EncodeUpdate(db.Add("n", 100))},
		{ID: types.ActionID{Server: "a", Index: 5}, Type: types.ActionUpdate,
			Update: db.EncodeUpdate(db.Add("n", 100))},
	}
	e.appendLog(logRecord{Kind: recOngoingBatch, Actions: orphans})
	e.syncLog("test")

	cfg.GC = newFakeGC()
	r, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.recover(); err != nil {
		t.Fatal(err)
	}
	if r.queue.greenCount() != 3 {
		t.Fatalf("recovered greens %d, want 3", r.queue.greenCount())
	}
	if res, _ := r.db.QueryGreen(db.Get("k")); res.Value != "3" {
		t.Fatalf("recovered k=%q, want %q", res.Value, "3")
	}
	if res, _ := r.db.QueryGreen(db.Get("n")); res.Value != "5" {
		t.Fatalf("recovered n=%q, want %q (orphans must not apply)", res.Value, "5")
	}
	if r.actionIndex != 5 {
		t.Fatalf("recovered actionIndex %d, want 5", r.actionIndex)
	}
	for _, o := range orphans {
		if !r.queue.has(o.ID) || r.queue.isGreen(o.ID) {
			t.Fatalf("orphan %v not re-marked red", o.ID)
		}
	}
}

// deliverOneProbe returns a singleton primary and a function that
// delivers its next keyed 16-set update, which turns green at once: the
// shape of apply_heavy, where about one action travels per multicast.
func deliverOneProbe(tb testing.TB) func() {
	gc := newFakeGC()
	e, err := newEngine(Config{ID: "a", Servers: []types.ServerID{"a"}, GC: gc,
		Log: storage.NewMemLog(storage.Options{Policy: storage.SyncNone})})
	if err != nil {
		tb.Fatal(err)
	}
	exchangeToPrim(tb, e, gc, conf(1, "a"), nil)
	ops := make([]db.Op, 16)
	for i := range ops {
		ops[i] = db.Set(fmt.Sprintf("key-%02d", i), "0123456789abcdef")
	}
	update := db.EncodeUpdate(ops...)
	var one [1]types.Action
	var idx uint64
	return func() {
		idx++
		one[0] = types.Action{
			ID: types.ActionID{Server: "a", Index: idx}, Type: types.ActionUpdate,
			Client: "c", ClientSeq: idx, GreenLine: idx - 1, Update: update,
		}
		e.onActionBatch(one[:])
	}
}

// BenchmarkDeliverOne times the delivery of one keyed update, green, to a
// singleton primary.
func BenchmarkDeliverOne(b *testing.B) {
	next := deliverOneProbe(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}

// TestDeliverOneAllocs guards the cost of a bundle of one: every
// delivery takes the bundle path, so it must not allocate more than the
// single-action path it replaced (deliverOneAllocs per delivery).
func TestDeliverOneAllocs(t *testing.T) {
	next := deliverOneProbe(t)
	if n := testing.AllocsPerRun(500, next); n > deliverOneAllocs {
		t.Fatalf("one delivery makes %.1f allocations, want at most %d", n, deliverOneAllocs)
	}
}

// deliverOneAllocs is what one delivery cost on the single-action path
// that bundles of one replaced.
const deliverOneAllocs = 41
