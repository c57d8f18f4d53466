package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"evsdb/internal/core"
	"evsdb/internal/db"
	"evsdb/internal/types"
)

type opState uint8

const (
	opPending opState = iota
	opOK
	opFailed  // the engine replied with an error
	opRefused // SubmitAsync itself returned an error
	opTimeout // no reply within the watchdog's limit
)

// opLog records every write of a run, one slot per op, filled by the pacer
// (home, due, sent) and by the collector of the op's home replica (done,
// seq, state). Times are nanoseconds since epoch.
type opLog struct {
	epoch time.Time
	home  []uint8
	due   []int64 // when the schedule wanted the op sent; closed loop: when it was sent
	sent  []int64 // when SubmitAsync returned
	done  []int64 // when the collector saw the reply
	seq   []uint64
	state []opState
}

func newOpLog(n int, epoch time.Time) *opLog {
	return &opLog{
		epoch: epoch,
		home:  make([]uint8, n),
		due:   make([]int64, n),
		sent:  make([]int64, n),
		done:  make([]int64, n),
		seq:   make([]uint64, n),
		state: make([]opState, n),
	}
}

func (l *opLog) now() int64 { return int64(time.Since(l.epoch)) }

// replyTimeout is the watchdog on a single reply: an op outstanding this
// long fails the run instead of hanging it.
const replyTimeout = 10 * time.Second

type pending struct {
	i  int
	ch <-chan core.Reply
}

// submitter is the part of core.Engine the load generator drives; tests
// substitute one that stalls.
type submitter interface {
	SubmitAsync(update, query []byte, sem types.Semantics) (<-chan core.Reply, error)
}

// loadgen issues pre-generated updates from one pacer goroutine and drains
// the replies with one collector goroutine per home replica. Replies of one
// home arrive in issue order, so a collector blocks on the head of its
// queue: no goroutine per request, no busy reader taking a core from the
// replicas.
type loadgen struct {
	engines []submitter
	updates [][]byte
	log     *opLog
	timeout time.Duration

	queues    []chan pending
	tokens    chan struct{} // the closed loop's window; nil outside one
	issued    int
	completed atomic.Int64

	abortOnce sync.Once
	abort     chan struct{}
	errMu     sync.Mutex
	err       error
	wg        sync.WaitGroup
}

// newLoadgen prepares a run of len(updates) ops; homes[i] is the replica
// index op i is submitted to. Times are counted from epoch.
func newLoadgen(engines []submitter, updates [][]byte, homes []uint8, epoch time.Time) *loadgen {
	g := &loadgen{
		engines: engines,
		updates: updates,
		log:     newOpLog(len(updates), epoch),
		timeout: replyTimeout,
		queues:  make([]chan pending, len(engines)),
		abort:   make(chan struct{}),
	}
	copy(g.log.home, homes)
	perHome := make([]int, len(engines))
	for _, h := range homes {
		perHome[h]++
	}
	for h, n := range perHome {
		if n == 0 {
			continue
		}
		// Sized to every op the home will ever get, so the pacer never
		// waits for a collector.
		g.queues[h] = make(chan pending, n)
		g.wg.Add(1)
		go g.collect(h)
	}
	return g
}

// fail records the first error and stops the pacer and the collectors.
func (g *loadgen) fail(err error) {
	g.errMu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.errMu.Unlock()
	g.abortOnce.Do(func() { close(g.abort) })
}

func (g *loadgen) aborted() bool {
	select {
	case <-g.abort:
		return true
	default:
		return false
	}
}

// finish closes the queues, waits for the collectors and returns the first
// error. Every op is then either answered or marked timed out.
func (g *loadgen) finish() error {
	for _, q := range g.queues {
		if q != nil {
			close(q)
		}
	}
	g.wg.Wait()
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.err
}

func (g *loadgen) issue(i int, due int64) {
	l := g.log
	l.due[i] = due
	home := l.home[i]
	ch, err := g.engines[home].SubmitAsync(g.updates[i], nil, types.SemStrict)
	l.sent[i] = l.now()
	g.issued++
	if err != nil {
		l.done[i] = l.sent[i]
		l.state[i] = opRefused
		g.complete()
		return
	}
	g.queues[home] <- pending{i: i, ch: ch}
}

func (g *loadgen) complete() {
	if g.tokens != nil {
		g.tokens <- struct{}{}
	}
	g.completed.Add(1)
}

func (g *loadgen) collect(home int) {
	defer g.wg.Done()
	l := g.log
	t := time.NewTimer(time.Hour)
	defer t.Stop()
	for p := range g.queues[home] {
		var r core.Reply
		got := false
		select {
		case r = <-p.ch:
			got = true
		default:
		}
		if !got && !g.aborted() {
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			t.Reset(g.timeout)
			select {
			case r = <-p.ch:
				got = true
			case <-t.C:
				g.fail(fmt.Errorf("reply outstanding %v at home %s (op %d)", g.timeout, serverID(home), p.i))
			case <-g.abort:
			}
		}
		l.done[p.i] = l.now()
		switch {
		case !got:
			l.state[p.i] = opTimeout
		case r.Err != "":
			l.state[p.i] = opFailed
		default:
			l.state[p.i] = opOK
			l.seq[p.i] = r.GreenSeq
		}
		g.complete()
	}
}

// openLoop issues ops [first, first+n) at rate ops/s on a fixed schedule
// beginning at start, whatever the replies do. An op's latency counts from
// its due time, so a stall of the generator (or of a replica's submit
// channel) is charged to the ops it delayed.
func (g *loadgen) openLoop(first, n int, rate float64, start int64) {
	interval := 1e9 / rate
	for k := 0; k < n && !g.aborted(); {
		due := start + int64(float64(k)*interval)
		if wait := due - g.log.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
			continue
		}
		g.issue(first+k, due)
		k++
	}
}

// closedLoop keeps window ops outstanding until the limit or maxOps. It
// returns how many ops it issued and the phase's start and end; the end is
// when the last reply arrived.
func (g *loadgen) closedLoop(first, maxOps, window int, limit time.Duration) (n int, start, end int64) {
	g.drain()
	// One token per outstanding op; the pacer takes, collectors give back.
	g.tokens = make(chan struct{}, window)
	for i := 0; i < window; i++ {
		g.tokens <- struct{}{}
	}
	start = g.log.now()
	stopAt := start + int64(limit)
	for n < maxOps && g.log.now() < stopAt {
		select {
		case <-g.tokens:
		case <-g.abort:
			return n, start, g.log.now()
		}
		g.issue(first+n, g.log.now())
		n++
	}
	g.drain()
	g.tokens = nil // every op is answered: no collector is using it
	end = start
	for i := first; i < first+n; i++ {
		end = max(end, g.log.done[i])
	}
	return n, start, end
}

// drain waits until every issued op has been answered (or the run failed).
func (g *loadgen) drain() {
	for g.completed.Load() < int64(g.issued) && !g.aborted() {
		time.Sleep(200 * time.Microsecond)
	}
}

// readBurst is how many queries the reader issues back to back; one
// latency sample is the burst's time divided by it.
const readBurst = 64

type readSample struct {
	at    int64   // burst start, ns since the op log's epoch
	perNs float64 // burst time / readBurst
}

// readPlan is one pre-generated query: which key, at which level, on which
// replica.
type readPlan struct {
	key     int
	query   []byte
	level   core.QueryLevel
	replica int
}

// reader is one goroutine issuing a burst of weak and dirty gets every
// period, round-robin over the replicas.
type reader struct {
	engines []*core.Engine
	plan    []readPlan
	every   time.Duration
	log     *opLog
	// valid reports whether a value may be returned for a key.
	valid func(key int, res db.Result) bool

	samples []readSample
	reads   int
	bad     int
	badMsg  string
}

func (r *reader) run(stop <-chan struct{}) {
	ctx := context.Background()
	var res [readBurst]db.Result
	next := r.log.now()
	for k := 0; ; k++ {
		if wait := next - r.log.now(); wait > 0 {
			t := time.NewTimer(time.Duration(wait))
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		base := (k * readBurst) % len(r.plan)
		t0 := r.log.now()
		for j := 0; j < readBurst; j++ {
			p := &r.plan[(base+j)%len(r.plan)]
			got, err := r.engines[p.replica].Query(ctx, p.query, p.level)
			if err != nil {
				got = db.Result{}
			}
			res[j] = got
		}
		t1 := r.log.now()
		r.samples = append(r.samples, readSample{at: t0, perNs: float64(t1-t0) / readBurst})
		r.reads += readBurst
		for j := 0; j < readBurst; j++ {
			p := &r.plan[(base+j)%len(r.plan)]
			if !r.valid(p.key, res[j]) {
				r.bad++
				if r.badMsg == "" {
					r.badMsg = fmt.Sprintf("read of key %d at %s returned %q (found=%v)",
						p.key, serverID(p.replica), res[j].Value, res[j].Found)
				}
			}
		}
		// A late burst does not start a backlog of bursts: the reader is a
		// paced observer, not a queue.
		next = max(next+int64(r.every), r.log.now())
	}
}
