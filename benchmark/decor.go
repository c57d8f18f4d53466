package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"evsdb/internal/core"
	"evsdb/internal/evs"
	"evsdb/internal/storage"
	"evsdb/internal/transport"
	"evsdb/internal/types"
)

// The decorators below sit in the three seams of a traced stack. They
// forward every call and record, in memory, when it happened: spans are
// assembled from these records after the run (trace.go). Nothing here
// decodes a payload, so the records show only what is visible from outside
// a layer.

// recorder collects what one traced stack's decorators saw. Times are
// nanoseconds since epoch, the op log's clock.
type recorder struct {
	epoch time.Time
	nodes []*tracedNode
	gcs   []*tracedGC
	logs  []*tracedLog
}

func newRecorder(epoch time.Time, replicas int) *recorder {
	return &recorder{
		epoch: epoch,
		nodes: make([]*tracedNode, replicas),
		gcs:   make([]*tracedGC, replicas),
		logs:  make([]*tracedLog, replicas),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// stop ends the forwarding goroutines; call it after the stack is closed.
func (r *recorder) stop() {
	for _, g := range r.gcs {
		if g != nil {
			g.quitOnce.Do(func() { close(g.quit) })
		}
	}
}

// seams returns the decorators' constructors. A replica restarted by
// recoverAll gets fresh decorators; the old ones' records are dropped with
// them, which is fine because tracing ends before the durability epilogue.
func (r *recorder) seams() seams {
	return seams{
		node: func(i int, n transport.Node) transport.Node {
			r.nodes[i] = &tracedNode{Node: n}
			return r.nodes[i]
		},
		gc: func(i int, g core.GroupCom) core.GroupCom {
			r.gcs[i] = newTracedGC(r, serverID(i), g)
			return r.gcs[i]
		},
		log: func(i int, l storage.Log) storage.Log {
			r.logs[i] = &tracedLog{rec: r, inner: l}
			return r.logs[i]
		},
	}
}

// tracedNode counts what evs hands to the transport.
type tracedNode struct {
	transport.Node
	sends      atomic.Uint64
	multicasts atomic.Uint64
	bytes      atomic.Uint64 // payload bytes times destinations
}

func (n *tracedNode) Send(to types.ServerID, payload []byte) error {
	n.sends.Add(1)
	n.bytes.Add(uint64(len(payload)))
	return n.Node.Send(to, payload)
}

func (n *tracedNode) Multicast(to []types.ServerID, payload []byte) error {
	n.multicasts.Add(1)
	n.bytes.Add(uint64(len(payload) * len(to)))
	return n.Node.Multicast(to, payload)
}

// mcRec is one engine multicast; dlRec is the delivery of one of the
// replica's own multicasts back to its engine.
type mcRec struct {
	at  int64
	len int
}

type dlRec struct {
	at    int64 // evs emitted the delivery
	taken int64 // the engine took it
	len   int
}

type vcRec struct {
	at           int64
	members      int
	transitional bool
}

// tracedGC stamps the engine's multicasts and the events evs delivers to
// it. Own deliveries match own multicasts first in, first out, which is
// what splits a commit into before, inside and after the total order.
type tracedGC struct {
	rec   *recorder
	id    types.ServerID
	inner core.GroupCom
	out   chan evs.Event
	quit  chan struct{}

	quitOnce sync.Once

	mu         sync.Mutex
	multicasts []mcRec
	own        []dlRec
	views      []vcRec
	deliveries uint64
}

func newTracedGC(rec *recorder, id types.ServerID, inner core.GroupCom) *tracedGC {
	g := &tracedGC{rec: rec, id: id, inner: inner, out: make(chan evs.Event), quit: make(chan struct{})}
	go g.forward()
	return g
}

func (g *tracedGC) Multicast(payload []byte, service evs.ServiceLevel) error {
	g.mu.Lock()
	g.multicasts = append(g.multicasts, mcRec{at: g.rec.now(), len: len(payload)})
	g.mu.Unlock()
	return g.inner.Multicast(payload, service)
}

func (g *tracedGC) Events() <-chan evs.Event { return g.out }

// forward passes events on unbuffered, so `taken` is when the engine's loop
// received the event. It ends, closing out, when evs closes its channel or
// the recorder is stopped (an engine that has stopped takes no more events).
func (g *tracedGC) forward() {
	defer close(g.out)
	events := g.inner.Events()
	for {
		var ev evs.Event
		select {
		case e, ok := <-events:
			if !ok {
				return
			}
			ev = e
		case <-g.quit:
			return
		}
		at := g.rec.now()
		select {
		case g.out <- ev:
		case <-g.quit:
			return
		}
		taken := g.rec.now()
		g.mu.Lock()
		switch t := ev.(type) {
		case evs.Delivery:
			g.deliveries++
			if t.Sender == g.id {
				g.own = append(g.own, dlRec{at: at, taken: taken, len: len(t.Payload)})
			}
		case evs.ViewChange:
			g.views = append(g.views, vcRec{at: at, members: len(t.Config.Members), transitional: t.Config.Transitional})
		}
		g.mu.Unlock()
	}
}

// snapshot copies the records taken so far.
func (g *tracedGC) snapshot() (mc []mcRec, own []dlRec, views []vcRec, deliveries uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]mcRec(nil), g.multicasts...), append([]dlRec(nil), g.own...),
		append([]vcRec(nil), g.views...), g.deliveries
}

// multicastCount is the number of engine multicasts so far.
func (g *tracedGC) multicastCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.multicasts)
}

type syncRec struct{ start, end int64 }

// tracedLog times the forced writes and counts what the engine appends.
type tracedLog struct {
	rec   *recorder
	inner storage.Log

	mu       sync.Mutex
	syncs    []syncRec
	appends  uint64
	bytes    uint64
	rewrites uint64
}

var _ storage.Compactable = (*tracedLog)(nil)

func (l *tracedLog) Append(record []byte) error {
	l.mu.Lock()
	l.appends++
	l.bytes += uint64(len(record))
	l.mu.Unlock()
	return l.inner.Append(record)
}

func (l *tracedLog) Sync() error {
	start := l.rec.now()
	err := l.inner.Sync()
	end := l.rec.now()
	l.mu.Lock()
	l.syncs = append(l.syncs, syncRec{start: start, end: end})
	l.mu.Unlock()
	return err
}

func (l *tracedLog) Records() ([][]byte, error) { return l.inner.Records() }

func (l *tracedLog) Close() error { return l.inner.Close() }

// Rewrite forwards checkpoint compaction, which the engine reaches through
// a type assertion on its log.
func (l *tracedLog) Rewrite(records [][]byte) error {
	c, ok := l.inner.(storage.Compactable)
	if !ok {
		return errors.New("benchmark: wrapped log is not compactable")
	}
	l.mu.Lock()
	l.rewrites++
	l.mu.Unlock()
	return c.Rewrite(records)
}

func (l *tracedLog) snapshot() (syncs []syncRec, appends, bytes uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]syncRec(nil), l.syncs...), l.appends, l.bytes
}
