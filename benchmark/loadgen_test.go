package main

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"evsdb/internal/core"
	"evsdb/internal/types"
)

// stallingEngine answers every submission at once, except that one call
// blocks for a while first: a replica (or a generator) that stops taking
// requests.
type stallingEngine struct {
	calls   atomic.Int64
	stallAt int64
	stall   time.Duration
	seq     atomic.Uint64
}

func (e *stallingEngine) SubmitAsync(update, query []byte, sem types.Semantics) (<-chan core.Reply, error) {
	if e.calls.Add(1) == e.stallAt {
		time.Sleep(e.stall)
	}
	ch := make(chan core.Reply, 1)
	ch <- core.Reply{GreenSeq: e.seq.Add(1)}
	return ch, nil
}

// The coordinated-omission case: the service itself is instant, but one
// submission blocks the single pacer for 60 ms. Timed from the moment it
// was sent, every request looks instant; timed from the moment it was due,
// the requests queued behind the stall show the wait they really had.
func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	const (
		n     = 200
		rate  = 2000.0 // one request every 500 us
		stall = 60 * time.Millisecond
	)
	eng := &stallingEngine{stallAt: 20, stall: stall}
	updates := make([][]byte, n)
	g := newLoadgen([]submitter{eng}, updates, make([]uint8, n), time.Now())
	g.openLoop(0, n, rate, g.log.now())
	g.drain()
	if err := g.finish(); err != nil {
		t.Fatal(err)
	}
	l := g.log
	var fromDueOver, fromSentOver int
	var worst int64
	for i := 0; i < n; i++ {
		if l.state[i] != opOK {
			t.Fatalf("op %d state %d", i, l.state[i])
		}
		if l.done[i]-l.due[i] > int64(10*time.Millisecond) {
			fromDueOver++
		}
		if i != 19 && l.done[i]-l.sent[i] > int64(10*time.Millisecond) {
			fromSentOver++
		}
		worst = max(worst, l.done[i]-l.due[i])
	}
	// The stall covers 120 due times; all but the last 10 ms of them waited
	// more than 10 ms.
	if fromDueOver < 80 {
		t.Errorf("%d requests over 10 ms from their due time, want about 100", fromDueOver)
	}
	if fromSentOver != 0 {
		t.Errorf("%d requests over 10 ms from their send time: the fake service is instant", fromSentOver)
	}
	if worst < int64(stall)-int64(5*time.Millisecond) {
		t.Errorf("worst latency from due time %v, want about %v", time.Duration(worst), stall)
	}
	if err := checkReplyOrder(l); err != nil {
		t.Error(err)
	}
}

// closedLoop answers every request it issues and stops at the op cap.
func TestClosedLoopHonoursWindowAndCap(t *testing.T) {
	eng := &stallingEngine{}
	const n = 500
	g := newLoadgen([]submitter{eng}, make([][]byte, n), make([]uint8, n), time.Now())
	issued, start, end := g.closedLoop(0, 300, 8, time.Minute)
	if err := g.finish(); err != nil {
		t.Fatal(err)
	}
	if issued != 300 || end < start {
		t.Errorf("issued %d ops from %d to %d, want 300", issued, start, end)
	}
	for i := 0; i < 300; i++ {
		if g.log.state[i] != opOK {
			t.Fatalf("op %d state %d", i, g.log.state[i])
		}
	}
	for i := 300; i < n; i++ {
		if g.log.state[i] != opPending {
			t.Fatalf("op %d was issued past the cap", i)
		}
	}
}

// A closed loop that its time limit ends short of the cap must not claim
// the op slots it never used: the schedule that follows uses them.
func TestClosedLoopEndedByTimeLeavesLaterOpsAlone(t *testing.T) {
	eng := &stallingEngine{}
	const n = 200
	g := newLoadgen([]submitter{eng}, make([][]byte, n), make([]uint8, n), time.Now())
	issued, _, _ := g.closedLoop(0, 150, 4, time.Nanosecond)
	if issued >= 150 {
		t.Fatalf("closed loop issued %d ops in a nanosecond", issued)
	}
	g.openLoop(issued, n-issued, 1e6, g.log.now())
	g.drain() // hangs if a collector waits to return a window token nobody took
	if err := g.finish(); err != nil {
		t.Fatal(err)
	}
	for i, s := range g.log.state {
		if s != opOK {
			t.Fatalf("op %d state %d", i, s)
		}
	}
}

// A reply that never comes fails the run within the watchdog's limit and
// names the home replica.
func TestCollectorTimesOutInsteadOfHanging(t *testing.T) {
	silent := silentEngine{}
	g := newLoadgen([]submitter{silent}, make([][]byte, 3), make([]uint8, 3), time.Now())
	g.timeout = 20 * time.Millisecond
	g.openLoop(0, 3, 1000, g.log.now())
	g.drain()
	err := g.finish()
	if err == nil || !strings.Contains(err.Error(), "s00") {
		t.Fatalf("finish returned %v, want a timeout naming s00", err)
	}
	for i, s := range g.log.state {
		if s != opTimeout {
			t.Errorf("op %d state %d, want timed out", i, s)
		}
	}
	if checkReplyOrder(g.log) != nil {
		t.Error("timed-out ops must not count as misordered")
	}
}

type silentEngine struct{}

func (silentEngine) SubmitAsync(update, query []byte, sem types.Semantics) (<-chan core.Reply, error) {
	return make(chan core.Reply), nil
}

// checkReplyOrder must reject a home replica whose replies go backwards.
func TestReplyOrderViolationIsReported(t *testing.T) {
	l := newOpLog(3, time.Now())
	l.state = []opState{opOK, opOK, opOK}
	l.seq = []uint64{5, 9, 9}
	err := checkReplyOrder(l)
	if err == nil || !strings.Contains(err.Error(), "s00") {
		t.Fatalf("checkReplyOrder = %v, want a violation naming s00", err)
	}
}
