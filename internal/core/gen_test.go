package core

import (
	"reflect"
	"testing"
	"time"

	"evsdb/internal/db"
	"evsdb/internal/types"
)

// gatedLog is a storage.Log whose Sync announces itself on started and
// then blocks until the test sends on release (or closes it).
type gatedLog struct {
	started chan struct{}
	release chan struct{}
}

func newGatedLog() *gatedLog {
	return &gatedLog{started: make(chan struct{}, 16), release: make(chan struct{})}
}

func (l *gatedLog) Append([]byte) error        { return nil }
func (l *gatedLog) Records() ([][]byte, error) { return nil, nil }
func (l *gatedLog) Close() error               { return nil }

func (l *gatedLog) Sync() error {
	l.started <- struct{}{}
	<-l.release
	return nil
}

func (l *gatedLog) waitSync(t *testing.T) {
	t.Helper()
	select {
	case <-l.started:
	case <-time.After(5 * time.Second):
		t.Fatal("no sync started")
	}
}

// sentIndices lists the action indices multicast so far, one slice per
// multicast.
func sentIndices(gc *fakeGC) [][]uint64 {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	var out [][]uint64
	for _, m := range gc.sent {
		if m.Kind != emBatch {
			continue
		}
		var idx []uint64
		for _, a := range m.Batch {
			idx = append(idx, a.ID.Index)
		}
		out = append(out, idx)
	}
	return out
}

// startGated runs an engine (NonPrim, so submissions create actions at
// once) on a gated log.
func startGated(t *testing.T, maxBatch int) (*Engine, *fakeGC, *gatedLog) {
	t.Helper()
	gc, log := newFakeGC(), newGatedLog()
	e, err := New(Config{ID: "a", Servers: []types.ServerID{"a", "b", "c"}, GC: gc, Log: log, MaxBatchActions: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(log.release)
		e.Close()
	})
	return e, gc, log
}

// submitN submits one action per key and returns once the run loop has
// handled them all: logged their records and scheduled their flush.
func submitN(t *testing.T, e *Engine, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, err := e.SubmitAsync(db.EncodeUpdate(db.Set(k, "v")), nil, types.SemStrict); err != nil {
			t.Fatal(err)
		}
	}
	e.Status() // the loop serves this only after the submissions before it
}

// waitSent waits until n multicasts went out.
func waitSent(t *testing.T, gc *fakeGC, n int) [][]uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(sentIndices(gc)) < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return sentIndices(gc)
}

// TestNoMulticastBeforeSync: an action goes out only after a sync that
// started after its record was appended. B is appended while A's sync is
// in flight, so releasing that sync may multicast A alone; B waits for the
// next one. A flush that took the whole queue would send B early.
func TestNoMulticastBeforeSync(t *testing.T) {
	e, gc, log := startGated(t, 0)
	submitN(t, e, "A")
	log.waitSync(t) // A's record is appended and its sync has begun
	submitN(t, e, "B")
	if got := sentIndices(gc); len(got) != 0 {
		t.Fatalf("multicast before any sync finished: %v", got)
	}

	log.release <- struct{}{}
	log.waitSync(t) // the second sync starts only after the first flush ran
	if got := sentIndices(gc); len(got) != 1 || len(got[0]) != 1 || got[0][0] != 1 {
		t.Fatalf("after the first sync: multicasts %v, want [[1]]", got)
	}

	log.release <- struct{}{}
	if got := waitSent(t, gc, 2); len(got) != 2 || len(got[1]) != 1 || got[1][0] != 2 {
		t.Fatalf("after the second sync: multicasts %v, want [[1] [2]]", got)
	}
}

// TestFlushBundlesOneSyncByCap: everything one sync made durable goes out
// together, in index order, in bundles of at most MaxBatchActions, and
// evsdb_batch_actions observes each multicast's size.
func TestFlushBundlesOneSyncByCap(t *testing.T) {
	e, gc, log := startGated(t, 2)
	submitN(t, e, "A")
	log.waitSync(t)
	submitN(t, e, "B", "C", "D")
	log.release <- struct{}{}
	log.waitSync(t)
	log.release <- struct{}{}
	got := waitSent(t, gc, 3)
	if want := [][]uint64{{1}, {2, 3}, {4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("multicasts %v, want %v", got, want)
	}
	if n, sum := e.om.batchSize.Count(), e.om.batchSize.Sum(); n != 3 || sum != 4 {
		t.Fatalf("evsdb_batch_actions count %d sum %v, want 3 multicasts of 4 actions", n, sum)
	}
	if full, drain := e.om.flushFull.Value(), e.om.flushDrain.Value(); full != 1 || drain != 2 {
		t.Fatalf("flushes full=%d drain=%d, want 1 and 2", full, drain)
	}
}
