package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"evsdb/internal/db"
	"evsdb/internal/storage"
	"evsdb/internal/types"
)

// numRecKinds counts the WAL record kinds, recState through
// recOngoingBatch.
const numRecKinds = int(recOngoingBatch-recState) + 1

// walSpecimens returns one record of every kind, each field the kind
// carries set to something a decoder could get wrong. The name is the
// kind's seed-corpus file under testdata/fuzz/FuzzWALRecord.
func walSpecimens() map[string]logRecord {
	full := types.Action{
		ID:        types.ActionID{Server: "s03", Index: 4242},
		Type:      types.ActionUpdate,
		Semantics: types.SemCommutative,
		GreenLine: 99,
		Client:    "client-7",
		ClientSeq: 41,
		Query:     []byte("q"),
		Update:    []byte{0, 1, 0xFE, 0xFF, '{'},
		Target:    "s09",
		Proc:      "transfer",
	}
	bare := types.Action{ID: types.ActionID{Server: "s01", Index: 1}, Type: types.ActionJoin, Target: "s05"}
	ids := []types.ActionID{full.ID, bare.ID, {Server: "", Index: 0}}
	return map[string]logRecord{
		"redBatch":     {Kind: recRedBatch, Actions: []types.Action{full, bare}, Track: true},
		"greenBatch":   {Kind: recGreenBatch, IDs: ids},
		"ongoingBatch": {Kind: recOngoingBatch, Actions: []types.Action{bare, full}},
		"state": {Kind: recState, State: &persistState{
			ActionIndex: 7, AttemptIndex: 2,
			Prim:       PrimComponent{PrimIndex: 6, AttemptIndex: 1, Servers: []types.ServerID{"s00", "s01"}},
			Vuln:       Vulnerable{Status: true, PrimIndex: 6, AttemptIndex: 2, Set: []types.ServerID{"s00"}},
			Yellow:     Yellow{Status: true, Set: []types.ActionID{{Server: "s00", Index: 3}}},
			GreenKnown: map[types.ServerID]uint64{"s00": 9, "s01": 4},
			Servers:    []types.ServerID{"s00", "s01"},
		}},
		"checkpoint": {Kind: recCheckpoint, Snap: &JoinSnapshot{
			Servers:    []types.ServerID{"s00", "s01"},
			GreenCount: 12,
			OrderedIdx: map[types.ServerID]uint64{"s00": 7, "s01": 5},
			GreenKnown: map[types.ServerID]uint64{"s00": 12},
			Prim:       PrimComponent{PrimIndex: 3, Servers: []types.ServerID{"s00", "s01"}},
		}},
	}
}

// readCorpusFile returns the []byte value of a one-argument Go fuzz
// corpus file.
func readCorpusFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	s, err := strconv.Unquote(lines[1][len("[]byte(") : len(lines[1])-1])
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestWALRecordRoundTrip: every kind decodes to what was encoded and
// re-encodes to the same bytes, and those bytes are the committed seed
// corpus — format v4 cannot drift without this test (and walCodecV4)
// being touched.
func TestWALRecordRoundTrip(t *testing.T) {
	specimens := walSpecimens()
	if len(specimens) != numRecKinds {
		t.Fatalf("%d specimens for %d record kinds", len(specimens), numRecKinds)
	}
	for name, rec := range specimens {
		frame := appendLogRecord(nil, rec)
		if frame[0] != walMagic || frame[1] != walCodecV4 || frame[2] != byte(rec.Kind) {
			t.Fatalf("%s: header % x", name, frame[:3])
		}
		got, err := decodeLogRecord(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("%s: decoded\n  %+v\nwant\n  %+v", name, got, rec)
		}
		if again := appendLogRecord(nil, got); !bytes.Equal(again, frame) {
			t.Fatalf("%s: re-encode differs:\n  % x\n  % x", name, again, frame)
		}
		path := filepath.Join("testdata", "fuzz", "FuzzWALRecord", "kind-"+name)
		if seed := readCorpusFile(t, path); !bytes.Equal(seed, frame) {
			t.Fatalf("%s holds a different frame than the encoder writes; if the format changed on purpose, "+
				"bump walCodecV4 and replace the file's value with\n[]byte(%q)", path, frame)
		}
	}
}

// TestWALRecordRejectsDamage: a strict prefix of a valid frame, or one
// with a foreign magic or version byte, is an error and never a partial
// record.
func TestWALRecordRejectsDamage(t *testing.T) {
	for name, rec := range walSpecimens() {
		frame := appendLogRecord(nil, rec)
		for n := 0; n < len(frame); n++ {
			if got, err := decodeLogRecord(frame[:n]); err == nil || !reflect.DeepEqual(got, logRecord{}) {
				t.Fatalf("%s: %d-byte prefix of %d decoded to %+v (err %v)", name, n, len(frame), got, err)
			}
		}
		for i, want := range []string{"foreign magic 0x18", "version mismatch"} {
			bad := append([]byte(nil), frame...)
			bad[i] ^= 0xFF
			if i == 1 {
				bad[i] = walCodecV4 + 1
			}
			got, err := decodeLogRecord(bad)
			if err == nil || !strings.Contains(err.Error(), want) || !reflect.DeepEqual(got, logRecord{}) {
				t.Fatalf("%s: byte %d damaged: record %+v, err %v (want %q)", name, i, got, err, want)
			}
		}
		if _, err := decodeLogRecord(append(frame, 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
	}
	// A wire frame is not a log record, and the other way round.
	if _, err := decodeLogRecord(encodeEngineMsg(codecSpecimen())); err == nil {
		t.Fatal("engine frame decoded as a WAL record")
	}
	if _, err := decodeEngineMsg(appendLogRecord(nil, walSpecimens()["redBatch"])); err == nil {
		t.Fatal("WAL record decoded as an engine frame")
	}
}

// FuzzWALRecord: whatever the disk hands back decodes cleanly or errors —
// never panics — and what decodes re-encodes to a fixed point: the same
// bytes for the binary kinds, and for the JSON-bodied kinds (whose input
// may carry whitespace or unknown fields) bytes that decode and encode to
// themselves.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte(`{"t":"red","action":{"id":{"server":"s00","index":1}}}`))
	f.Add([]byte{walMagic, walCodecV4})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeLogRecord(data)
		if err != nil {
			return
		}
		frame := appendLogRecord(nil, rec)
		if rec.Kind != recState && rec.Kind != recCheckpoint {
			if !bytes.Equal(frame, data) {
				t.Fatalf("binary record re-encodes differently:\n  % x\n  % x", data, frame)
			}
			return
		}
		again, err := decodeLogRecord(frame)
		if err != nil {
			t.Fatalf("re-decode of an encoded record failed: %v", err)
		}
		if twice := appendLogRecord(nil, again); !bytes.Equal(twice, frame) {
			t.Fatalf("JSON-bodied record is not a fixed point:\n  %s\n  %s", frame[3:], twice[3:])
		}
	})
}

// TestRecoverAllRecordKinds writes a log holding every record kind
// through the engine's own paths, crashes the disk, recovers a fresh
// engine from it and compares that with the engine that never crashed.
func TestRecoverAllRecordKinds(t *testing.T) {
	gc := newFakeGC()
	log := storage.NewMemLog(storage.Options{Policy: storage.SyncForced})
	cfg := Config{ID: "a", Servers: []types.ServerID{"a", "b", "c"}, GC: gc, Log: log}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	update := func(server string, idx uint64, key string) types.Action {
		return types.Action{
			ID: types.ActionID{Server: types.ServerID(server), Index: idx}, Type: types.ActionUpdate,
			Client: "c-" + server, ClientSeq: idx, GreenLine: idx - 1,
			Update: db.EncodeUpdate(db.Add(key, 1)),
		}
	}
	exchangeToPrim(t, e, gc, conf(1, "a", "b", "c"), nil)
	deliver(e, update("b", 1, "x"), update("b", 2, "y"), update("b", 3, "x"))
	if err := e.checkpoint(); err != nil { // checkpoint + state replace the history
		t.Fatal(err)
	}
	deliver(e, update("c", 1, "x"))                      // redBatch + greenBatch of one
	deliver(e, update("b", 4, "y"), update("b", 5, "z")) // redBatch + greenBatch of two
	// Alone in a new configuration: no quorum, deliveries stay red.
	e.onRegConf(conf(2, "a"))
	for _, m := range gc.take() {
		if m.Kind == emState {
			e.onStateMsg(*m.State)
		}
	}
	if e.st != NonPrim {
		t.Fatalf("state %v (1 of 3 must not be primary)", e.st)
	}
	deliver(e, update("b", 6, "x"))
	deliver(e, update("c", 2, "y"), update("c", 3, "z"))
	submit := func(key string) submitReq {
		return submitReq{action: types.Action{Type: types.ActionUpdate, Update: db.EncodeUpdate(db.Add(key, 1))},
			ch: make(chan Reply, 1)}
	}
	submitOne(e, submit("o1"))                                   // ongoingBatch of one
	e.handleSubmitBatch([]submitReq{submit("o2"), submit("o3")}) // ongoingBatch of two
	e.syncLog("test")
	log.Crash()

	kinds := map[recKind]int{}
	records, _ := log.Records()
	for i, buf := range records {
		rec, err := decodeLogRecord(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		kinds[rec.Kind]++
	}
	if len(kinds) != numRecKinds {
		t.Fatalf("log holds kinds %v, want all %d", kinds, numRecKinds)
	}

	cfg.GC = newFakeGC()
	r, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.recover(); err != nil {
		t.Fatal(err)
	}
	// The recovered history starts at the checkpoint's green line.
	wantHist, _ := e.GreenHistory()
	gotHist, first := r.GreenHistory()
	if first != 4 || !reflect.DeepEqual(gotHist, wantHist[first-1:]) {
		t.Fatalf("green history from %d: %v, twin %v", first, gotHist, wantHist)
	}
	// Recovery re-marks the ongoing actions red behind the red zone, in
	// index order (paper A.13); the twin still holds them as ongoing.
	wantReds := append([]types.Action(nil), e.queue.reds()...)
	var ongoing []types.Action
	for _, a := range e.ongoing {
		ongoing = append(ongoing, a)
	}
	sort.Slice(ongoing, func(i, j int) bool { return ongoing[i].ID.Index < ongoing[j].ID.Index })
	if len(ongoing) != 3 || len(r.ongoing) != 0 {
		t.Fatalf("ongoing: twin %d (want 3), recovered %d (want 0)", len(ongoing), len(r.ongoing))
	}
	if wantReds = append(wantReds, ongoing...); !reflect.DeepEqual(r.queue.reds(), wantReds) {
		t.Fatalf("red zone\n  %+v\ntwin reds + ongoing\n  %+v", r.queue.reds(), wantReds)
	}
	if r.actionIndex != e.actionIndex || r.queue.greenCount() != e.queue.greenCount() {
		t.Fatalf("actionIndex %d greens %d, twin %d %d",
			r.actionIndex, r.queue.greenCount(), e.actionIndex, e.queue.greenCount())
	}
	if !reflect.DeepEqual(r.prim, e.prim) || !reflect.DeepEqual(r.greenKnown, e.greenKnown) {
		t.Fatalf("metadata: prim %+v known %v, twin %+v %v", r.prim, r.greenKnown, e.prim, e.greenKnown)
	}
	if !bytes.Equal(r.db.Snapshot(), e.db.Snapshot()) {
		t.Fatalf("db snapshots differ:\n  %s\n  %s", r.db.Snapshot(), e.db.Snapshot())
	}
}

// TestRecoverRejectsJSONEraLog: a log written before the framed codec
// must stop recovery with an error that says which record and why, not be
// replayed as something it is not.
func TestRecoverRejectsJSONEraLog(t *testing.T) {
	log := storage.NewMemLog(storage.Options{Policy: storage.SyncNone})
	good := appendLogRecord(nil, walSpecimens()["ongoingBatch"])
	for _, rec := range [][]byte{good, []byte(`{"t":"red","action":{"id":{"server":"b","index":1},"type":1}}`)} {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	e, err := New(Config{ID: "a", Servers: []types.ServerID{"a"}, GC: newFakeGC(), Log: log, Recover: true})
	if err == nil {
		e.Close()
		t.Fatal("recovery replayed a JSON-era log")
	}
	for _, want := range []string{"record 1", fmt.Sprintf("magic 0x%02x", '{'), fmt.Sprintf("0x%02x", walMagic)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}

// recoverRefuses asserts that recovery from a log holding frame refuses
// it with ErrCodecVersion and an error naming each of want.
func recoverRefuses(t *testing.T, frame []byte, want ...string) {
	t.Helper()
	log := storage.NewMemLog(storage.Options{Policy: storage.SyncNone})
	if err := log.Append(frame); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{ID: "a", Servers: []types.ServerID{"a"}, GC: newFakeGC(), Log: log, Recover: true})
	if err == nil {
		e.Close()
		t.Fatalf("recovery replayed % x", frame[:3])
	}
	if !errors.Is(err, ErrCodecVersion) {
		t.Fatalf("error %q does not wrap ErrCodecVersion", err)
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not name %q", err, w)
		}
	}
}

// TestRecoverRejectsV2Log: a version 2 log may hold single-action
// records, a kind version 3 no longer has. Recovery must refuse it with
// ErrCodecVersion, naming the record, rather than replay it.
func TestRecoverRejectsV2Log(t *testing.T) {
	// A version 2 single-action ongoing record: header, then one action.
	recoverRefuses(t, appendAction([]byte{walMagic, 2, 3}, types.Action{
		ID: types.ActionID{Server: "a", Index: 1}, Type: types.ActionUpdate,
		Update: db.EncodeUpdate(db.Set("k", "v")),
	}), "record 0", "frame v2", "speaks v4")
}

// TestRecoverRejectsV3Log: a version 3 red record does not say whether
// the live engine tracked its actions, so replay could not know where to
// apply relaxed ones. Recovery must refuse it, naming the record.
func TestRecoverRejectsV3Log(t *testing.T) {
	recoverRefuses(t, appendActions([]byte{walMagic, 3, byte(recRedBatch)}, []types.Action{{
		ID: types.ActionID{Server: "a", Index: 1}, Type: types.ActionUpdate,
		Update: db.EncodeUpdate(db.Set("k", "v")),
	}}), "record 0", "frame v3", "speaks v4")
}

// TestReplayAppliesRelaxedInGreenOrder: a singleton primary greens the
// bundle {strict Set x=5, commutative Add x 1} at once, so the live
// engine applies the Add after the Set and reads "6". Replay must do the
// same; before the red record said whether the live engine tracked its
// actions, replay applied the Add eagerly at the red record, before the
// Set, and read "5".
func TestReplayAppliesRelaxedInGreenOrder(t *testing.T) {
	e, gc, log := testEngine(t, "a", "a")
	exchangeToPrim(t, e, gc, conf(1, "a"), nil)
	deliver(e,
		types.Action{ID: types.ActionID{Server: "a", Index: 1}, Type: types.ActionUpdate,
			Semantics: types.SemStrict, Update: db.EncodeUpdate(db.Set("x", "5"))},
		types.Action{ID: types.ActionID{Server: "a", Index: 2}, Type: types.ActionUpdate,
			Semantics: types.SemCommutative, Update: db.EncodeUpdate(db.Add("x", 1))})
	if res, _ := e.db.QueryGreen(db.Get("x")); res.Value != "6" {
		t.Fatalf("live x=%q, want 6", res.Value)
	}
	r, err := newEngine(Config{ID: "a", Servers: []types.ServerID{"a"}, GC: newFakeGC(), Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.recover(); err != nil {
		t.Fatal(err)
	}
	if res, _ := r.db.QueryGreen(db.Get("x")); res.Value != "6" {
		t.Fatalf("after replay x=%q, want 6", res.Value)
	}
}

// BenchmarkAppendLogRedBatch64 is the engine side of logging one
// delivered 64-action bundle: encode into the pooled buffer, hand it to
// the log. The log's own copy is the one allocation left.
func BenchmarkAppendLogRedBatch64(b *testing.B) {
	e, err := newEngine(Config{ID: "a", Servers: []types.ServerID{"a"}, GC: newFakeGC(), Log: discardLog{}})
	if err != nil {
		b.Fatal(err)
	}
	rec := logRecord{Kind: recRedBatch, Actions: benchBatch(64).Batch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.appendLog(rec)
	}
}

// discardLog consumes records without keeping them, so the benchmark
// above counts the engine's allocations and not a log's.
type discardLog struct{}

func (discardLog) Append([]byte) error        { return nil }
func (discardLog) Sync() error                { return nil }
func (discardLog) Records() ([][]byte, error) { return nil, nil }
func (discardLog) Close() error               { return nil }

// TestRecoverTwiceKeepsRevivedGreen: an action that one recovery revived
// from its ongoing record and that then turned green must still be green
// after a second recovery, at the same position. Before the revived red
// was logged, the second replay skipped its green record and every later
// green position shifted — a recovered member then disagreed with its
// peers on the global order and waited forever for retransmissions.
func TestRecoverTwiceKeepsRevivedGreen(t *testing.T) {
	log := storage.NewMemLog(storage.Options{Policy: storage.SyncForced})
	cfg := Config{ID: "a", Servers: []types.ServerID{"a", "b", "c"}, GC: newFakeGC(), Log: log}
	e, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitOne(e, submitReq{action: types.Action{Type: types.ActionUpdate, Update: db.EncodeUpdate(db.Add("k", 1))},
		ch: make(chan Reply, 1)})
	e.syncLog("test")
	log.Crash() // a:1 is ongoing only: never delivered

	gc := newFakeGC()
	cfg.GC = gc
	r1, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.recover(); err != nil {
		t.Fatal(err)
	}
	exchangeToPrim(t, r1, gc, conf(1, "a", "b", "c"), nil) // the install greens the revived a:1
	want, _ := r1.GreenHistory()
	if len(want) != 1 || want[0] != (types.ActionID{Server: "a", Index: 1}) {
		t.Fatalf("after the first recovery and install: greens %v, want [a:1]", want)
	}
	r1.syncLog("test")
	log.Crash()

	cfg.GC = newFakeGC()
	r2, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.recover(); err != nil {
		t.Fatal(err)
	}
	if got, _ := r2.GreenHistory(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the second recovery: greens %v, want %v", got, want)
	}
	if r2.queue.greenCount() != 1 || !bytes.Equal(r2.db.Snapshot(), r1.db.Snapshot()) {
		t.Fatalf("second recovery: %d greens, db %s; want 1 and %s", r2.queue.greenCount(), r2.db.Snapshot(), r1.db.Snapshot())
	}
}
