package main

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"evsdb/internal/evs"
	"evsdb/internal/storage"
	"evsdb/internal/transport"
	"evsdb/internal/types"
)

// fakeNode records every call a decorator forwards.
type fakeNode struct {
	calls   []string
	recv    chan transport.Message
	changes chan struct{}
}

func (f *fakeNode) ID() types.ServerID { f.calls = append(f.calls, "ID"); return "s07" }
func (f *fakeNode) Send(to types.ServerID, p []byte) error {
	f.calls = append(f.calls, "Send "+string(to)+" "+string(p))
	return errors.New("send error")
}
func (f *fakeNode) Multicast(to []types.ServerID, p []byte) error {
	f.calls = append(f.calls, "Multicast "+string(p))
	return errors.New("multicast error")
}
func (f *fakeNode) Recv() <-chan transport.Message { f.calls = append(f.calls, "Recv"); return f.recv }
func (f *fakeNode) Reachable() []types.ServerID {
	f.calls = append(f.calls, "Reachable")
	return []types.ServerID{"s07", "s08"}
}
func (f *fakeNode) Changes() <-chan struct{} { f.calls = append(f.calls, "Changes"); return f.changes }
func (f *fakeNode) Close() error {
	f.calls = append(f.calls, "Close")
	return errors.New("close error")
}

func TestTracedNodeForwardsEveryMethod(t *testing.T) {
	inner := &fakeNode{recv: make(chan transport.Message), changes: make(chan struct{})}
	rec := newRecorder(time.Now(), 1)
	var n transport.Node = rec.seams().node(0, inner)

	if n.ID() != "s07" {
		t.Error("ID not forwarded")
	}
	if err := n.Send("s08", []byte("abc")); err == nil || err.Error() != "send error" {
		t.Errorf("Send returned %v", err)
	}
	if err := n.Multicast([]types.ServerID{"s08", "s09"}, []byte("defg")); err == nil || err.Error() != "multicast error" {
		t.Errorf("Multicast returned %v", err)
	}
	if n.Recv() != (<-chan transport.Message)(inner.recv) {
		t.Error("Recv returned another channel")
	}
	if got := n.Reachable(); !reflect.DeepEqual(got, []types.ServerID{"s07", "s08"}) {
		t.Errorf("Reachable = %v", got)
	}
	if n.Changes() != (<-chan struct{})(inner.changes) {
		t.Error("Changes returned another channel")
	}
	if err := n.Close(); err == nil || err.Error() != "close error" {
		t.Errorf("Close returned %v", err)
	}
	want := []string{"ID", "Send s08 abc", "Multicast defg", "Recv", "Reachable", "Changes", "Close"}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("inner saw %v, want %v", inner.calls, want)
	}
	tn := rec.nodes[0]
	if tn.sends.Load() != 1 || tn.multicasts.Load() != 1 || tn.bytes.Load() != 3+2*4 {
		t.Errorf("counted %d sends, %d multicasts, %d bytes", tn.sends.Load(), tn.multicasts.Load(), tn.bytes.Load())
	}
}

type fakeGC struct {
	events chan evs.Event
	sent   []string
}

func (f *fakeGC) Multicast(p []byte, s evs.ServiceLevel) error {
	f.sent = append(f.sent, string(p)+" "+s.String())
	return errors.New("gc error")
}
func (f *fakeGC) Events() <-chan evs.Event { return f.events }

func TestTracedGCForwardsMulticastsAndEventsInOrder(t *testing.T) {
	inner := &fakeGC{events: make(chan evs.Event, 4)} // holds the whole script below
	rec := newRecorder(time.Now(), 2)
	g := rec.seams().gc(1, inner)
	defer rec.stop()

	if err := g.Multicast([]byte("hello"), evs.Safe); err == nil || err.Error() != "gc error" {
		t.Errorf("Multicast returned %v", err)
	}
	if !reflect.DeepEqual(inner.sent, []string{"hello safe"}) {
		t.Errorf("inner saw %v", inner.sent)
	}
	script := []evs.Event{
		evs.ViewChange{Config: types.Configuration{Members: []types.ServerID{"s00", "s01"}}},
		evs.Delivery{Sender: "s00", Payload: []byte("theirs")},
		evs.Delivery{Sender: "s01", Payload: []byte("hello"), Service: evs.Safe},
		evs.ViewChange{Config: types.Configuration{Members: []types.ServerID{"s01"}, Transitional: true}},
	}
	for _, ev := range script {
		inner.events <- ev
	}
	close(inner.events)
	var got []evs.Event
	for ev := range g.Events() {
		got = append(got, ev)
	}
	if !reflect.DeepEqual(got, script) {
		t.Errorf("engine side saw %v, want %v", got, script)
	}
	mc, own, views, deliveries := rec.gcs[1].snapshot()
	if len(mc) != 1 || mc[0].len != 5 {
		t.Errorf("multicasts recorded: %+v", mc)
	}
	if len(own) != 1 || own[0].len != 5 || own[0].taken < own[0].at {
		t.Errorf("own deliveries recorded: %+v", own)
	}
	if deliveries != 2 {
		t.Errorf("%d deliveries counted, want 2", deliveries)
	}
	if len(views) != 2 || views[0].members != 2 || views[0].transitional || !views[1].transitional {
		t.Errorf("views recorded: %+v", views)
	}
}

// An engine that has stopped takes no more events; stop must still end the
// forwarder.
func TestTracedGCStopsWithAnEventPending(t *testing.T) {
	inner := &fakeGC{events: make(chan evs.Event, 1)}
	rec := newRecorder(time.Now(), 1)
	g := rec.seams().gc(0, inner)
	inner.events <- evs.Delivery{Sender: "s05"}
	rec.stop()
	select {
	case _, ok := <-g.Events():
		if ok {
			// The pending event may still be handed over; the close follows.
			if _, ok := <-g.Events(); ok {
				t.Error("events channel still open after stop")
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forwarder did not end")
	}
}

// fakeLog is a storage.Log that is also Compactable.
type fakeLog struct{ calls []string }

func (f *fakeLog) Append(r []byte) error { f.calls = append(f.calls, "Append "+string(r)); return nil }
func (f *fakeLog) Sync() error           { f.calls = append(f.calls, "Sync"); return errors.New("sync error") }
func (f *fakeLog) Records() ([][]byte, error) {
	f.calls = append(f.calls, "Records")
	return [][]byte{[]byte("r1")}, nil
}
func (f *fakeLog) Close() error { f.calls = append(f.calls, "Close"); return nil }
func (f *fakeLog) Rewrite(rs [][]byte) error {
	f.calls = append(f.calls, "Rewrite "+string(rs[0]))
	return errors.New("rewrite error")
}

// plainLog hides Rewrite.
type plainLog struct{ storage.Log }

func TestTracedLogForwardsEveryMethodIncludingRewrite(t *testing.T) {
	inner := &fakeLog{}
	rec := newRecorder(time.Now(), 1)
	l := rec.seams().log(0, inner)

	if err := l.Append([]byte("abcd")); err != nil {
		t.Error(err)
	}
	if err := l.Sync(); err == nil || err.Error() != "sync error" {
		t.Errorf("Sync returned %v", err)
	}
	if recs, err := l.Records(); err != nil || len(recs) != 1 || string(recs[0]) != "r1" {
		t.Errorf("Records = %q, %v", recs, err)
	}
	// The engine reaches Rewrite through a type assertion on its log.
	c, ok := l.(storage.Compactable)
	if !ok {
		t.Fatal("the log decorator hides storage.Compactable from the engine")
	}
	if err := c.Rewrite([][]byte{[]byte("snap")}); err == nil || err.Error() != "rewrite error" {
		t.Errorf("Rewrite returned %v", err)
	}
	if err := l.Close(); err != nil {
		t.Error(err)
	}
	want := []string{"Append abcd", "Sync", "Records", "Rewrite snap", "Close"}
	if !reflect.DeepEqual(inner.calls, want) {
		t.Errorf("inner saw %v, want %v", inner.calls, want)
	}
	syncs, appends, bytes := rec.logs[0].snapshot()
	if len(syncs) != 1 || syncs[0].end < syncs[0].start || appends != 1 || bytes != 4 {
		t.Errorf("recorded %d syncs, %d appends, %d bytes", len(syncs), appends, bytes)
	}

	wrapped := rec.seams().log(0, plainLog{inner})
	if err := wrapped.(storage.Compactable).Rewrite(nil); err == nil {
		t.Error("Rewrite on a log that cannot compact returned no error")
	}
}
