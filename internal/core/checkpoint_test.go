package core

import (
	"testing"

	"evsdb/internal/db"
	"evsdb/internal/storage"
	"evsdb/internal/types"
)

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	gc := newFakeGC()
	log := storage.NewMemLog(storage.Options{Policy: storage.SyncNone})
	cfg := Config{ID: "a", Servers: []types.ServerID{"a"}, GC: gc, Log: log}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)
	for i := uint64(1); i <= 20; i++ {
		deliver(e, types.Action{
			ID: types.ActionID{Server: "a", Index: i}, Type: types.ActionUpdate,
			Update: db.EncodeUpdate(db.Add("n", 1)),
		})
	}
	e.actionIndex = 20
	before, _ := log.Records()

	if err := e.checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, _ := log.Records()
	if len(after) >= len(before) {
		t.Fatalf("compaction did not shrink the log: %d -> %d", len(before), len(after))
	}

	cfg.GC = newFakeGC()
	r, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.recover(); err != nil {
		t.Fatal(err)
	}
	if r.queue.greenCount() != 20 {
		t.Fatalf("recovered greens %d", r.queue.greenCount())
	}
	if res, _ := r.db.QueryGreen(db.Get("n")); res.Value != "20" {
		t.Fatalf("recovered n=%q", res.Value)
	}
	if r.actionIndex != 20 {
		t.Fatalf("recovered actionIndex %d", r.actionIndex)
	}
	if r.prim.PrimIndex != e.prim.PrimIndex {
		t.Fatalf("recovered prim %+v vs %+v", r.prim, e.prim)
	}
}

func TestCheckpointPreservesRedsAndOngoing(t *testing.T) {
	gc := newFakeGC()
	log := storage.NewMemLog(storage.Options{Policy: storage.SyncNone})
	cfg := Config{ID: "a", Servers: []types.ServerID{"a", "b", "c"}, GC: gc, Log: log}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// In a minority component: actions stay red.
	e.onRegConf(conf(1, "a"))
	var mine *stateMsg
	for _, m := range gc.take() {
		if m.Kind == emState {
			mine = m.State
		}
	}
	e.onStateMsg(*mine)
	if e.st != NonPrim {
		t.Fatalf("state %v (1 of 3 must not be primary)", e.st)
	}
	red := types.Action{ID: types.ActionID{Server: "b", Index: 1}, Type: types.ActionUpdate,
		Update: db.EncodeUpdate(db.Set("r", "1"))}
	deliver(e, red)
	// A locally created action that never came back from the group.
	submitOne(e, submitReq{
		action: types.Action{Type: types.ActionUpdate, Update: db.EncodeUpdate(db.Set("o", "1"))},
		ch:     make(chan Reply, 1),
	})
	if len(e.ongoing) != 1 {
		t.Fatalf("ongoing queue: %d entries", len(e.ongoing))
	}

	if err := e.checkpoint(); err != nil {
		t.Fatal(err)
	}
	cfg.GC = newFakeGC()
	r, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.recover(); err != nil {
		t.Fatal(err)
	}
	if !r.queue.has(red.ID) || r.queue.isGreen(red.ID) {
		t.Fatal("red action lost by compaction")
	}
	// The ongoing action was re-marked red on recovery (paper A.13).
	ongoingID := types.ActionID{Server: "a", Index: 1}
	if !r.queue.has(ongoingID) {
		t.Fatal("ongoing action lost by compaction")
	}
}

func TestCheckpointRequiresCompactableLog(t *testing.T) {
	gc := newFakeGC()
	log := nonCompactable{storage.NewMemLog(storage.Options{Policy: storage.SyncNone})}
	e, err := newEngine(Config{ID: "a", Servers: []types.ServerID{"a"}, GC: gc, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on a non-compactable log")
	}
}

// nonCompactable exposes only the base Log methods (embedding would
// promote Rewrite and defeat the test).
type nonCompactable struct{ inner *storage.MemLog }

func (n nonCompactable) Append(r []byte) error      { return n.inner.Append(r) }
func (n nonCompactable) Sync() error                { return n.inner.Sync() }
func (n nonCompactable) Records() ([][]byte, error) { return n.inner.Records() }
func (n nonCompactable) Close() error               { return n.inner.Close() }

func TestCheckpointRecordsDecode(t *testing.T) {
	// Guard against record-format drift: a checkpointed log contains only
	// known record types.
	gc := newFakeGC()
	log := storage.NewMemLog(storage.Options{Policy: storage.SyncNone})
	e, err := newEngine(Config{ID: "a", Servers: []types.ServerID{"a"}, GC: gc, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)
	deliver(e, types.Action{ID: types.ActionID{Server: "a", Index: 1}, Type: types.ActionUpdate})
	if err := e.checkpoint(); err != nil {
		t.Fatal(err)
	}
	recs, _ := log.Records()
	for i, buf := range recs {
		rec, err := decodeLogRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		switch rec.Kind {
		case recCheckpoint, recRedBatch, recOngoingBatch, recState:
		default:
			t.Fatalf("record %d has unexpected kind %d", i, rec.Kind)
		}
	}
}
