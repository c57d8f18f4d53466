// Package evs implements an Extended Virtual Synchrony (EVS) group
// communication layer (Moser, Amir, Melliar-Smith, Agarwal, ICDCS 1994)
// on top of a best-effort datagram transport.
//
// It provides the exact service the replication engine of Amir & Tutu
// (CNDS-2001-6) requires:
//
//   - reliable multicast within a membership view (configuration), with
//     Agreed (total order) and Safe (total order + all-received) delivery;
//   - a membership service delivering regular configurations, with the
//     EVS refinement of a *transitional* configuration between them:
//     messages that cannot meet the Safe guarantee are delivered after the
//     transitional configuration notification and before the next regular
//     configuration;
//   - virtual synchrony: processes moving together between configurations
//     (the transitional set) deliver the same messages in the same order.
//
// The implementation uses a per-configuration sequencer (lowest member
// id) for total order, cumulative acknowledgments for stability (Safe
// delivery), NACK-based loss recovery, a symmetric membership-agreement
// protocol, and a flush protocol that equalizes the transitional set's
// message holdings before the new configuration installs.
package evs

import (
	"fmt"
	"sync"
	"time"

	"evsdb/internal/obs"
	"evsdb/internal/queue"
	"evsdb/internal/transport"
	"evsdb/internal/types"
)

// ServiceLevel selects the delivery guarantee for a multicast.
type ServiceLevel int

const (
	// Fifo delivers reliably in per-sender FIFO order, without global
	// ordering: a message is delivered as soon as the sender's stream is
	// contiguous through it. Used for end-to-end acknowledgments
	// (the COReL baseline).
	Fifo ServiceLevel = iota + 1
	// Agreed delivers in total order as soon as the order is known.
	Agreed
	// Safe delivers in total order once every member of the current
	// configuration is known to hold the message. Messages that cannot
	// meet this before a membership change are delivered in the
	// transitional configuration instead (the § 4.1 trichotomy).
	Safe
)

func (s ServiceLevel) String() string {
	switch s {
	case Fifo:
		return "fifo"
	case Agreed:
		return "agreed"
	case Safe:
		return "safe"
	default:
		return "ServiceLevel(?)"
	}
}

// Event is a delivery from the group communication layer: either a
// Delivery or a ViewChange.
type Event interface{ isEvent() }

// Delivery is an application message delivered in total order.
type Delivery struct {
	Conf    types.ConfID
	Sender  types.ServerID
	Payload []byte
	Service ServiceLevel
	// InTrans marks delivery inside a transitional configuration: the
	// message was received but its Safe guarantee could not be confirmed
	// before the membership changed (§ 4.1 case 2).
	InTrans bool
}

func (Delivery) isEvent() {}

// ViewChange announces a configuration: transitional (reduced membership,
// no new messages will be sent in it) or regular.
type ViewChange struct {
	Config types.Configuration
}

func (ViewChange) isEvent() {}

type phase int

const (
	phaseRegular phase = iota + 1
	phaseGather
	phaseFlush
)

// Config tunes protocol timers.
type Config struct {
	// Tick drives acknowledgments, NACK scans and membership
	// retransmissions. Default 1ms.
	Tick time.Duration
	// NackBatch caps the gaps reported per NACK. Default 64.
	NackBatch int
	// ResendTicks spaces periodic membership/ack retransmissions (loss
	// recovery only — protocol progress is event-driven). Default 16.
	ResendTicks uint64
	// Obs is the observability bundle (metrics + traces) the node
	// instruments. Nil means a fresh private bundle.
	Obs *obs.Observer
}

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.NackBatch <= 0 {
		c.NackBatch = 64
	}
	if c.ResendTicks == 0 {
		c.ResendTicks = 16
	}
	if c.Obs == nil {
		c.Obs = obs.NewObserver()
	}
	return c
}

// Option configures a Node.
type Option func(*Config)

// WithTick overrides the protocol tick interval.
func WithTick(d time.Duration) Option {
	return func(c *Config) { c.Tick = d }
}

type outData struct {
	payload []byte
	service ServiceLevel
}

// Node is one group-communication endpoint. Create with NewNode; all
// protocol state is owned by a single event-loop goroutine.
type Node struct {
	cfg Config
	tr  transport.Node
	id  types.ServerID

	events   *queue.Unbounded[Event]
	eventsCh chan Event
	sendQ    *queue.Unbounded[outData]
	wake     chan struct{}

	stopOnce sync.Once
	stop     chan struct{}
	loopDone chan struct{}
	pumpDone chan struct{}

	// dbg holds a human-readable snapshot of the protocol state, updated
	// by the loop; Debug reads it without touching loop-owned state.
	dbg atomicString

	// Everything below is owned by the run loop.
	tickCount   uint64
	rxPropose   uint64   // propose datagrams received (pre-filter), debug only
	rxFlush     uint64   // flush-state datagrams received (pre-filter), debug only
	rxDone      uint64   // flush-done datagrams received (pre-filter), debug only
	txDone      uint64   // flush-done datagrams multicast, debug only
	rejDone     string   // last rejected flush-done (conf@from), debug only
	trace       []string // recent membership transitions, debug only
	phase       phase
	conf        *confState
	oldConfID   types.ConfID // id of last installed regular conf (zero before first)
	maxCounter  uint64
	proposals   map[types.ServerID]proposeMsg
	myProposal  []types.ServerID
	flush       *flushPhase
	transDone   bool // transitional config + messages already delivered for conf
	pendingSend []outData
	om          *evsObs
	gatherStart time.Time // when the in-progress view change left phaseRegular
}

type flushPhase struct {
	newConf  types.ConfID
	members  []types.ServerID
	states   map[types.ServerID]flushStateMsg
	doneFrom map[types.ServerID]bool
	doneSent bool
}

// NewNode attaches an EVS endpoint to the transport and starts its event
// loop. The first event delivered is the initial regular configuration.
func NewNode(tr transport.Node, opts ...Option) *Node {
	cfg := Config{}
	for _, opt := range opts {
		opt(&cfg)
	}
	n := &Node{
		cfg:      cfg.withDefaults(),
		tr:       tr,
		id:       tr.ID(),
		events:   queue.NewUnbounded[Event](),
		eventsCh: make(chan Event),
		sendQ:    queue.NewUnbounded[outData](),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	n.om = newEVSObs(n.cfg.Obs.Reg)
	go n.pumpEvents()
	go n.run()
	return n
}

// ID returns the node's server identifier.
func (n *Node) ID() types.ServerID { return n.id }

// atomicString is a tiny typed wrapper over sync-safe string storage.
type atomicString struct {
	mu sync.Mutex
	s  string
}

func (a *atomicString) store(s string) {
	a.mu.Lock()
	a.s = s
	a.mu.Unlock()
}

func (a *atomicString) load() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s
}

// Debug returns a snapshot of the node's protocol state for diagnostics.
func (n *Node) Debug() string { return n.dbg.load() }

// traceEvent records a membership transition for post-mortem dumps.
func (n *Node) traceEvent(s string) {
	n.trace = append(n.trace, fmt.Sprintf("t%d:%s", n.tickCount, s))
	if len(n.trace) > 12 {
		n.trace = n.trace[len(n.trace)-12:]
	}
}

// snapshotDebug refreshes the debug snapshot (called from the loop).
func (n *Node) snapshotDebug() {
	var confID types.ConfID
	var delivered, holdCut, stable, orderMax uint64
	if n.conf != nil {
		confID = n.conf.id
		delivered = n.conf.delivered
		holdCut = n.conf.holdCut
		stable = n.conf.stable()
		orderMax = n.conf.orderMax
	}
	ph := "regular"
	extra := ""
	switch n.phase {
	case phaseGather:
		ph = "gather"
		extra = fmt.Sprintf(" proposal=%v got=%d", n.myProposal, len(n.proposals))
	case phaseFlush:
		ph = "flush"
		extra = fmt.Sprintf(" new=%v members=%d states=%d done=%d doneSent=%v transDone=%v",
			n.flush.newConf, len(n.flush.members), len(n.flush.states),
			len(n.flush.doneFrom), n.flush.doneSent, n.transDone)
	}
	n.dbg.store(fmt.Sprintf("phase=%s ticks=%d rx=%d/%d/%d tx=%d rej=%q maxC=%d conf=%v deliv=%d hold=%d stable=%d orderMax=%d%s trace=%v",
		ph, n.tickCount, n.rxPropose, n.rxFlush, n.rxDone, n.txDone, n.rejDone, n.maxCounter,
		confID, delivered, holdCut, stable, orderMax, extra, n.trace))
}

// Events returns the ordered stream of deliveries and view changes. The
// channel closes when the node stops.
func (n *Node) Events() <-chan Event { return n.eventsCh }

// Multicast sends payload to the current configuration with the given
// service level. If a membership change is in progress the message is
// buffered and sent in the next regular configuration, preserving the
// sender's FIFO order.
func (n *Node) Multicast(payload []byte, service ServiceLevel) error {
	select {
	case <-n.stop:
		return transport.ErrClosed
	default:
	}
	n.sendQ.Push(outData{payload: append([]byte(nil), payload...), service: service})
	select {
	case n.wake <- struct{}{}:
	default:
	}
	return nil
}

// Close stops the node and the underlying transport endpoint.
func (n *Node) Close() {
	n.stopOnce.Do(func() {
		close(n.stop)
		_ = n.tr.Close()
	})
	<-n.loopDone
	<-n.pumpDone
}

// pumpEvents moves queued events to the outward channel without ever
// blocking the protocol loop. Once the node is closed it drops every
// remaining event, so Close never blocks on a reader that has gone. What
// a reader still receives after Close is therefore a prefix of the event
// stream: it must never see an event whose predecessor was dropped — say,
// a delivery inside a transitional configuration without the
// transitional configuration itself, which it would take for a delivery
// in the regular one.
func (n *Node) pumpEvents() {
	defer close(n.pumpDone)
	defer close(n.eventsCh)
	closed := false
	for {
		ev, ok := n.events.Pop()
		if !ok {
			return
		}
		if closed {
			continue
		}
		select {
		case n.eventsCh <- ev:
		case <-n.stop:
			closed = true
		}
	}
}

func (n *Node) emit(ev Event) { n.events.Push(ev) }

// run is the protocol event loop.
func (n *Node) run() {
	defer close(n.loopDone)
	defer n.events.Close()

	ticker := time.NewTicker(n.cfg.Tick)
	defer ticker.Stop()

	n.enterGather() // bootstrap: agree on the first configuration

	recv := n.tr.Recv()
	for {
		select {
		case msg, ok := <-recv:
			if !ok {
				return // endpoint crashed or closed
			}
			n.handleWire(msg)
			// Drain whatever is immediately available so ordering,
			// acknowledgments and delivery batch naturally under load.
			for drained := 0; drained < 256; drained++ {
				select {
				case more, ok2 := <-recv:
					if !ok2 {
						return
					}
					n.handleWire(more)
				default:
					drained = 256
				}
			}
		case <-n.tr.Changes():
			n.checkReachability()
		case <-n.wake:
			n.drainSends()
		case <-ticker.C:
			n.tick()
		case <-n.stop:
			return
		}
		n.progress()
	}
}

// drainSends moves queued application sends into the network (regular
// phase) or the pending buffer (membership change in progress).
func (n *Node) drainSends() {
	for n.sendQ.Len() > 0 {
		od, ok := n.sendQ.Pop()
		if !ok {
			return
		}
		if n.phase == phaseRegular && n.conf != nil {
			n.sendData(od)
		} else {
			n.pendingSend = append(n.pendingSend, od)
		}
	}
}

func (n *Node) sendData(od outData) {
	c := n.conf
	c.nextLSeq++
	d := dataMsg{
		Conf:    c.id,
		Sender:  n.id,
		LSeq:    c.nextLSeq,
		Service: od.service,
		Payload: od.payload,
	}
	n.multicast(c.members, wireMsg{Kind: kindData, Data: &d})
}

func (n *Node) multicast(to []types.ServerID, m wireMsg) {
	encodePooled(m, func(buf []byte) { _ = n.tr.Multicast(to, buf) })
}

func (n *Node) unicast(to types.ServerID, m wireMsg) {
	encodePooled(m, func(buf []byte) { _ = n.tr.Send(to, buf) })
}

// reachable returns the failure detector's current estimate, always
// including self, in canonical order.
func (n *Node) reachable() []types.ServerID {
	r := n.tr.Reachable()
	for _, id := range r {
		if id == n.id {
			return r
		}
	}
	return append(r, n.id)
}

// checkReachability reacts to failure-detector changes per phase.
func (n *Node) checkReachability() {
	cur := n.reachable()
	switch n.phase {
	case phaseRegular:
		if n.conf != nil && !equalIDs(cur, n.conf.members) {
			n.enterGather()
		}
	case phaseGather:
		if !equalIDs(cur, n.myProposal) {
			n.propose(cur)
		}
	case phaseFlush:
		if !equalIDs(cur, n.flush.members) {
			n.enterGather()
		}
	}
}

func equalIDs(a, b []types.ServerID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
