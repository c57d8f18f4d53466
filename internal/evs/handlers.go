package evs

import (
	"fmt"

	"evsdb/internal/transport"
	"evsdb/internal/types"
)

// handleWire dispatches one incoming datagram.
func (n *Node) handleWire(msg transport.Message) {
	m, err := decodeWire(msg.Payload)
	if err != nil {
		return // corrupt datagrams are dropped; NACKs recover the stream
	}
	from := msg.From
	switch m.Kind {
	case kindData:
		n.handleData(m.Data)
	case kindOrder:
		n.handleOrder(m.Order)
	case kindAck:
		n.handleAck(from, m.Ack)
	case kindStable:
		n.handleStable(m.Stable)
	case kindNack:
		n.handleNack(from, m.Nack)
	case kindPropose:
		if m.Propose != nil {
			n.rxPropose++
			n.handlePropose(from, *m.Propose)
		}
	case kindFlushState:
		if m.FlushState != nil {
			n.rxFlush++
			n.handleFlushState(from, *m.FlushState)
		}
	case kindRetransData:
		n.handleRetransData(m.RetransData)
	case kindRetransOrder:
		n.handleRetransOrder(m.RetransOrder)
	case kindFlushDone:
		n.rxDone++
		n.handleFlushDone(from, m.FlushDone)
	}
}

// current reports whether id is this node's configuration. Traffic of
// any other configuration is dropped, after noteConf has looked at it.
func (n *Node) current(id types.ConfID) bool {
	if n.conf != nil && id == n.conf.id {
		return true
	}
	n.noteConf(id)
	return false
}

// noteConf reacts, while gathering, to traffic of a configuration newer
// than any this node took part in. Peers send it only to that
// configuration's members, so they count this node as one; yet it never
// installed it. It restarted after the install, and the peers' failure
// detectors missed both the crash and the restart (one coalesced
// reachability signal can cover both). Its proposals still carry the
// counter it restarted with, which the peers take for late duplicates of
// the gather that formed their configuration (handlePropose), so no new
// one would ever start. Adopting the counter makes its next proposal one
// they must answer.
func (n *Node) noteConf(id types.ConfID) {
	if n.phase != phaseGather || id.Counter <= n.maxCounter {
		return
	}
	n.maxCounter = id.Counter
	n.propose(n.myProposal)
}

func (n *Node) handleData(d *dataMsg) {
	if d == nil || !n.current(d.Conf) {
		return
	}
	if !n.conf.storeData(d) {
		return
	}
	n.deliverFifo(d.Sender)
	// Only the sequencer assigns order, and only while the configuration
	// is steady; assignments made during a membership change could not be
	// propagated consistently.
	if n.phase == phaseRegular && n.conf.sequencer == n.id {
		n.conf.sequence(d.Sender)
	}
}

// deliverFifo emits FIFO-service messages that became deliverable for
// sender s.
func (n *Node) deliverFifo(s types.ServerID) {
	for _, d := range n.conf.nextFifo(s) {
		n.emit(Delivery{Conf: n.conf.id, Sender: d.Sender, Payload: d.Payload, Service: Fifo})
	}
}

func (n *Node) handleOrder(o *orderMsg) {
	if o == nil || !n.current(o.Conf) {
		return
	}
	n.conf.storeOrder(o.Entries)
}

func (n *Node) handleAck(from types.ServerID, a *ackMsg) {
	if a == nil || !n.current(a.Conf) {
		return
	}
	if a.UpTo > n.conf.acks[from] {
		n.conf.acks[from] = a.UpTo
	}
	if a.SentHigh > n.conf.dataMax[from] {
		n.conf.dataMax[from] = a.SentHigh
	}
}

func (n *Node) handleStable(s *stableMsg) {
	if s == nil || !n.current(s.Conf) {
		return
	}
	if s.UpTo > n.conf.stableCut {
		n.conf.stableCut = s.UpTo
	}
	for id, high := range s.SentHigh {
		if high > n.conf.dataMax[id] {
			n.conf.dataMax[id] = high
		}
	}
}

// handleNack answers retransmission requests: data from this node's own
// stream, order entries if this node is the sequencer.
func (n *Node) handleNack(from types.ServerID, nk *nackMsg) {
	if nk == nil || !n.current(nk.Conf) {
		return
	}
	n.om.nackRx.Inc()
	c := n.conf
	if nk.Sender == n.id {
		for _, lseq := range nk.LSeqs {
			if d, held := c.data[n.id][lseq]; held {
				n.unicast(from, wireMsg{Kind: kindData, Data: d})
			}
		}
	}
	if len(nk.GSeqs) > 0 && c.sequencer == n.id {
		var entries []orderEntry
		for _, g := range nk.GSeqs {
			if e, held := c.orders[g]; held {
				entries = append(entries, e)
			}
		}
		if len(entries) > 0 {
			n.unicast(from, wireMsg{Kind: kindOrder, Order: &orderMsg{Conf: c.id, Entries: entries}})
		}
	}
}

func (n *Node) handleRetransData(rd *retransDataMsg) {
	if rd == nil || n.phase != phaseFlush || rd.NewConf != n.flush.newConf {
		return
	}
	if n.conf == nil || rd.Data.Conf != n.conf.id {
		return // retransmission for a different old configuration
	}
	d := rd.Data
	if n.conf.storeData(&d) {
		n.deliverFifo(d.Sender)
	}
}

func (n *Node) handleRetransOrder(ro *retransOrderMsg) {
	if ro == nil || n.phase != phaseFlush || ro.NewConf != n.flush.newConf {
		return
	}
	if n.conf == nil || ro.OldConf != n.conf.id {
		return
	}
	n.conf.storeOrder(ro.Entries)
}

func (n *Node) handleFlushDone(from types.ServerID, fd *flushDoneMsg) {
	if fd == nil {
		n.rejDone = "nil"
		return
	}
	if n.phase != phaseFlush {
		n.rejDone = fmt.Sprintf("phase=%d got %v from %s", n.phase, fd.NewConf, from)
		return
	}
	if fd.NewConf != n.flush.newConf {
		n.rejDone = fmt.Sprintf("conf %v != mine %v from %s", fd.NewConf, n.flush.newConf, from)
		return
	}
	if !n.flush.doneFrom[from] && from != n.id && n.flush.doneSent {
		// First contact: the peer may have missed our flush-done while it
		// was still gathering; re-announce once, event-driven.
		n.txDone++
		n.multicast(n.flush.members, wireMsg{Kind: kindFlushDone,
			FlushDone: &flushDoneMsg{NewConf: n.flush.newConf}})
	}
	n.flush.doneFrom[from] = true
}

// progress runs after every batch of events: ordering flush, stability
// advancement, in-order delivery and flush progression.
func (n *Node) progress() {
	switch n.phase {
	case phaseRegular:
		n.progressRegular()
	case phaseFlush:
		n.progressFlush()
	}
}

func (n *Node) progressRegular() {
	c := n.conf
	if c == nil {
		return
	}
	// Sequencer: publish any freshly assigned order entries (batched per
	// handled burst, so ordering traffic amortizes under load).
	if c.sequencer == n.id && len(c.pendingOrder) > 0 {
		entries := c.pendingOrder
		c.pendingOrder = nil
		n.multicast(c.members, wireMsg{Kind: kindOrder, Order: &orderMsg{Conf: c.id, Entries: entries}})
	}
	c.advanceHold()
	if c.sequencer == n.id {
		// The sequencer aggregates stability: when the minimum ack across
		// the configuration advances, announce the new SAFE bound.
		if min := c.ackMin(); min > c.stableCut {
			c.stableCut = min
			n.multicast(c.members, wireMsg{Kind: kindStable, Stable: &stableMsg{Conf: c.id, UpTo: min}})
		}
	} else if c.holdCut > c.lastAckSent {
		// Acknowledge per processed burst: cheap at low rate, amortized
		// under load, and it is what advances stability for Safe delivery.
		c.lastAckSent = c.holdCut
		n.sendAck()
	}
	for {
		d := c.nextDeliverable()
		if d == nil {
			break
		}
		n.emit(Delivery{Conf: c.id, Sender: d.Sender, Payload: d.Payload, Service: d.Service})
		c.markDelivered()
	}
	n.om.safeLag.Set(int64(c.orderMax - c.delivered))
}

// sendAck unicasts the cumulative acknowledgment (plus this node's own
// stream high watermark) to the sequencer.
func (n *Node) sendAck() {
	c := n.conf
	n.unicast(c.sequencer, wireMsg{Kind: kindAck, Ack: &ackMsg{
		Conf:     c.id,
		UpTo:     c.holdCut,
		SentHigh: c.nextLSeq,
	}})
}

// tick drives periodic work. Fast work (reachability checks, NACK scans,
// ack advancement, GC) runs every tick; blanket retransmissions of
// membership traffic run only every ResendTicks ticks — they exist purely
// to recover lost datagrams, since protocol progress is event-driven.
func (n *Node) tick() {
	n.tickCount++
	resend := n.tickCount%n.cfg.ResendTicks == 0
	if resend {
		// The debug snapshot allocates; refreshing it on resend ticks only
		// keeps the per-tick cost near zero at sub-millisecond tick rates.
		n.snapshotDebug()
	}
	switch n.phase {
	case phaseRegular:
		// Reachability changes arrive on their own notification channel;
		// the tick check is only a slow backstop for detectors that miss
		// an edge (e.g. tcpnet heartbeats).
		if resend {
			n.checkReachability()
			if n.phase != phaseRegular { // reachability moved us to gather
				return
			}
		}
		c := n.conf
		if c == nil {
			return
		}
		if resend {
			if c.sequencer == n.id {
				// The sequencer re-announces the stability bound and every
				// member's stream high watermark (tail-loss detection), and
				// its latest order assignment so receivers can NACK
				// interior gaps even when the newest order message was
				// lost.
				high := make(map[types.ServerID]uint64, len(c.members))
				for _, m := range c.members {
					high[m] = c.dataMax[m]
				}
				n.multicast(c.members, wireMsg{Kind: kindStable, Stable: &stableMsg{
					Conf: c.id, UpTo: c.stableCut, SentHigh: high,
				}})
				if c.nextGSeq > c.gcCut {
					if e, held := c.orders[c.nextGSeq]; held {
						n.multicast(c.members, wireMsg{Kind: kindOrder, Order: &orderMsg{Conf: c.id, Entries: []orderEntry{e}}})
					}
				}
			} else {
				// Periodic ack: recovers lost acknowledgments (stability
				// would otherwise stall forever under loss).
				n.sendAck()
			}
		}
		for sender, lseqs := range c.dataGaps(n.cfg.NackBatch) {
			n.om.nackTx.Inc()
			n.unicast(sender, wireMsg{Kind: kindNack, Nack: &nackMsg{Conf: c.id, Sender: sender, LSeqs: lseqs}})
		}
		if gseqs := c.orderGaps(n.cfg.NackBatch); len(gseqs) > 0 {
			n.om.nackTx.Inc()
			n.unicast(c.sequencer, wireMsg{Kind: kindNack, Nack: &nackMsg{Conf: c.id, GSeqs: gseqs}})
		}
		c.gc()
	case phaseGather:
		n.checkReachability()
		if n.phase == phaseGather && resend {
			// Re-announce: proposals are idempotent and this recovers any
			// lost announcement.
			n.propose(n.myProposal)
		}
	case phaseFlush:
		n.checkReachability()
		if n.phase != phaseFlush {
			return
		}
		f := n.flush
		if !resend {
			return
		}
		if t := n.transSet(); t != nil {
			u := n.computeUnion(t)
			n.retransmitLacking(t, u)
		}
		// Loss-recovery blanket resends: keep stragglers converging
		// toward the same membership and refresh our flush state.
		p := proposeMsg{Members: f.members, MaxCounter: n.maxCounter - 1}
		n.multicast(f.members, wireMsg{Kind: kindPropose, Propose: &p})
		n.sendFlushState()
		if f.doneSent {
			n.txDone++
			n.multicast(f.members, wireMsg{Kind: kindFlushDone, FlushDone: &flushDoneMsg{NewConf: f.newConf}})
		}
	}
}
