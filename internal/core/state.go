package core

import (
	"math"
	"slices"
	"time"

	"evsdb/internal/obs"
	"evsdb/internal/types"
)

// onActionBatch handles the delivery of an ActionBatch (paper
// CodeSegments A.1–A.3, A.4, A.6, A.11, A.12). Every action travels in a
// bundle of n >= 1: the bundle occupies one position in the total order,
// and every server unpacks it and processes the inner actions in batch
// order, while the red/green bookkeeping, the WAL record and the database
// apply amortize over the bundle.
func (e *Engine) onActionBatch(acts []types.Action) {
	if len(acts) == 0 {
		return
	}
	switch e.st {
	case NonPrim:
		e.markRedBatch(acts, true)
	case RegPrim:
		// MarkGreen: each action goes just on top of the last green one.
		e.markRedBatch(acts, false)
		for _, a := range acts {
			if a.GreenLine > e.greenKnown[a.ID.Server] {
				e.greenKnown[a.ID.Server] = a.GreenLine
			}
		}
		e.applyGreenBatch(acts)
		e.collectWhite()
	case TransPrim:
		e.markYellow(acts)
	case ExchangeStates, ExchangeActions:
		// Live actions sent around the view change surface here. They
		// must NOT enter the red zone yet: members start the exchange
		// with different red cuts, so a live action that overtakes the
		// retransmission of its predecessor would be FIFO-accepted at
		// some members and rejected at others — and a subsequent install
		// would order divergent red sets (a global-order violation found
		// by fault-injection simulation). Buffer it; endOfRetrans folds
		// the buffer in after every member's cut is equalized to the
		// plan's maxRedCut, making acceptance identical everywhere.
		e.liveBuf = append(e.liveBuf, acts...)
	case Construct, No:
		// Total order makes this consistent: either every server sees the
		// bundle before its last CPC (red everywhere, greened canonically
		// on install) or after (green in delivery order everywhere).
		e.markRedBatch(acts, false)
	case Un:
		// Paper transition 1b: some server installed the primary and
		// already generated a new action. Act as if installing, mark the
		// bundle yellow, and join that server in TransPrim.
		e.install()
		e.markYellow(acts)
		e.setState(TransPrim)
	}
}

// onTransConf handles a transitional configuration notification.
func (e *Engine) onTransConf(conf types.Configuration) {
	e.obs.Trace.Record(obs.EvConfTrans, conf.ID.Counter, uint64(len(conf.Members)), 0)
	switch e.st {
	case RegPrim:
		e.setState(TransPrim)
	case NonPrim:
		// Ignored (paper A.1): red actions keep accumulating.
	case ExchangeStates, ExchangeActions:
		// The exchange died: live actions buffered during it settle as
		// plain reds (red-set divergence across components is normal
		// here; the next exchange equalizes it).
		e.flushLiveBuf()
		e.setState(NonPrim)
	case Construct:
		e.setState(No)
	}
}

// onRegConf handles a regular configuration notification.
func (e *Engine) onRegConf(conf types.Configuration) {
	e.obs.Trace.Record(obs.EvConfRegular, conf.ID.Counter, uint64(len(conf.Members)), 0)
	e.conf = conf.Clone()
	switch e.st {
	case TransPrim:
		// The primary was installed and ran; its outcome is fully known
		// and synced by shiftToExchangeStates below.
		e.vuln.Status = false
		e.yellow.Status = true
	case No:
		// No server can have received all CPC messages as safe in the old
		// configuration (§ 4.1 case 3 for the last CPC), so nobody
		// installed: the attempt is void.
		e.vuln.Status = false
	case Un:
		// The dilemma stands: stay vulnerable (paper transition "?").
	}
	e.shiftToExchangeStates()
}

// onStateMsg handles a state message during ExchangeStates (paper A.4).
// Round filtering keeps messages from an exchange round superseded by a
// catch-up restart from polluting the new round's collection.
func (e *Engine) onStateMsg(s stateMsg) {
	if e.st != ExchangeStates || s.Conf != e.conf.ID || s.Round != e.exchRound || e.awaitingSnap {
		return
	}
	e.stateMsgs[s.Server] = s
	for _, m := range e.conf.Members {
		if _, ok := e.stateMsgs[m]; !ok {
			return
		}
	}
	// All state messages delivered: decide the exchange, send this
	// server's share of the retransmissions, and move to ExchangeActions.
	e.verdict = decide(e.conf.Members, e.stateMsgs, e.quo)
	if e.verdict.blocked {
		// No live holder can retransmit part of the green gap — a crashed
		// member recovered below the component's white-collection base.
		// Retransmission cannot equalize green states; the most
		// knowledgeable member sends its full green snapshot (paper
		// § 5.2), and every member waits for it before restarting the
		// exchange in the next round.
		e.awaitingSnap = true
		if e.verdict.snapSender == e.id {
			sm := snapMsg{Server: e.id, Conf: e.conf.ID, Round: e.exchRound, Snap: e.buildJoinSnapshot()}
			_ = multicastMsg(e.gc, engineMsg{Kind: emSnapshot, Snap: &sm})
		}
		return
	}
	e.retransmitShare()
	e.setState(ExchangeActions)
	e.maybeEndRetrans()
}

// onSnapshot handles a § 5.2 catch-up snapshot. Safe delivery in an
// unchanged configuration means every member processes it at the same
// point of the total order: all of them — the sender included — adopt
// whatever the snapshot adds, bump the exchange round, and re-send their
// state messages.
func (e *Engine) onSnapshot(m snapMsg) {
	if e.st != ExchangeStates || m.Conf != e.conf.ID || m.Round != e.exchRound || m.Snap == nil {
		return
	}
	e.applyCatchUp(m.Snap)
	e.exchRound++
	e.awaitingSnap = false
	e.stateMsgs = make(map[types.ServerID]stateMsg)
	e.pendingGreen = make(map[uint64]types.Action)
	s := e.buildStateMsg()
	_ = multicastMsg(e.gc, engineMsg{Kind: emState, State: &s})
}

// applyCatchUp adopts a catch-up snapshot: members at or above the
// snapshot's green line only merge knowledge; laggards replace their
// green prefix with the snapshot, preserving every red action the
// snapshot does not already incorporate, and force the new base to disk —
// a crash right after the exchange restarts must not reopen the gap.
func (e *Engine) applyCatchUp(snap *JoinSnapshot) {
	if snap.GreenCount <= e.queue.greenCount() {
		for s, v := range snap.GreenKnown {
			if v > e.greenKnown[s] {
				e.greenKnown[s] = v
			}
		}
		return
	}
	// Red actions beyond the snapshot's per-creator cut survive the
	// restore. Green prefixes are prefix-related (Theorem 1), so the
	// snapshot incorporates every action below that cut and the kept runs
	// stay contiguous from the restored red cut.
	var keep []types.Action
	for _, a := range e.queue.reds() {
		if a.ID.Index > snap.OrderedIdx[a.ID.Server] {
			keep = append(keep, a)
		}
	}
	oldKnown := e.greenKnown
	wasApplied := e.appliedRed
	if err := e.restoreSnapshot(snap); err != nil {
		e.ioFailed = true
		return
	}
	for s, v := range oldKnown {
		if v > e.greenKnown[s] {
			e.greenKnown[s] = v
		}
	}
	e.appendLog(logRecord{Kind: recCheckpoint, Snap: snap})
	e.appliedRed = make(map[types.ActionID]bool)
	e.eagerApplied = make(map[idemKey]bool)
	// A relaxed action applied and answered while red has its effect
	// redone on the restored database under the live eager rule, which
	// skips a key the snapshot already incorporates (a retried copy turned
	// green before the snapshot was cut); its green record then skips
	// re-application, as after a replay. Each run of kept actions that
	// agree on that goes in one red record, so replay tracks the same ones.
	for len(keep) > 0 {
		track := wasApplied[keep[0].ID]
		n := 1
		for n < len(keep) && wasApplied[keep[n].ID] == track {
			n++
		}
		e.markRedBatch(keep[:n], track)
		keep = keep[n:]
	}
	// Locally pending actions incorporated in the snapshot were greened
	// elsewhere; applyGreen will never run for them here, so answer their
	// clients now. The snapshot only bounds the position: report its green
	// count, the latest position the action can occupy.
	for id, chans := range e.pendingReply {
		if id.Index <= snap.OrderedIdx[id.Server] {
			delete(e.pendingReply, id)
			e.observeLatency(id)
			for _, ch := range chans {
				ch <- Reply{GreenSeq: snap.GreenCount}
			}
			e.releaseQueries(id)
		}
	}
	for k, id := range e.inflight {
		if _, pending := e.pendingReply[id]; !pending {
			delete(e.inflight, k)
		}
	}
	for id := range e.ongoing {
		if id.Index <= snap.OrderedIdx[id.Server] {
			delete(e.ongoing, id)
		}
	}
	e.rebuildDirtyOverlay()
	e.obs.Trace.Record(obs.EvCatchUp, e.queue.greenCount(), 0, 0)
	e.persistState()
	e.syncLog("catch-up")
}

// onCPC handles a Create Primary Component message (paper A.9, A.11).
func (e *Engine) onCPC(c cpcMsg) {
	if c.Conf != e.conf.ID {
		return
	}
	switch e.st {
	case ExchangeStates, ExchangeActions:
		// A faster member can finish its retransmissions and send its CPC
		// before this member finishes receiving; total order may deliver
		// that CPC while we are still exchanging. Buffer it — it counts
		// once we reach Construct. (The paper serializes retransmission
		// turns to exclude this; buffering is the equivalent.)
		e.cpcFrom[c.Server] = true
	case Construct:
		e.cpcFrom[c.Server] = true
		if !e.allCPC() {
			return
		}
		// Everyone's CPC arrived as safe in the regular configuration:
		// install. All members reached the same green line.
		for _, m := range e.conf.Members {
			if e.greenKnown[m] < e.queue.greenCount() {
				e.greenKnown[m] = e.queue.greenCount()
			}
		}
		e.install()
		e.setState(RegPrim)
		e.handleBuffered()
		e.processPendingJoins()
		e.regenerateOngoing()
	case No:
		e.cpcFrom[c.Server] = true
		if e.allCPC() {
			// All CPCs arrived, but some only in the transitional
			// configuration: a server may or may not have installed.
			e.setState(Un)
		}
	}
}

func (e *Engine) allCPC() bool {
	for _, m := range e.conf.Members {
		if !e.cpcFrom[m] {
			return false
		}
	}
	return true
}

// shiftToExchangeStates implements the paper's Shift_to_exchange_states:
// force state to disk, clear collected state messages, generate this
// server's state message, and enter ExchangeStates.
func (e *Engine) shiftToExchangeStates() {
	// Actions still buffered from an exchange the view change cut short
	// become reds now, so the state message below accounts for them.
	e.flushLiveBuf()
	e.persistState()
	e.syncLog("exchange-states")
	e.stateMsgs = make(map[types.ServerID]stateMsg)
	e.cpcFrom = make(map[types.ServerID]bool)
	e.pendingGreen = make(map[uint64]types.Action)
	e.exchRound = 0
	e.awaitingSnap = false
	s := e.buildStateMsg()
	_ = multicastMsg(e.gc, engineMsg{Kind: emState, State: &s})
	e.om.exchanges.Inc()
	e.exchStart = time.Now()
	e.obs.Trace.Record(obs.EvExchangeStart, e.om.exchanges.Value(), 0, 0)
	e.setState(ExchangeStates)
}

func (e *Engine) buildStateMsg() stateMsg {
	redCut := make(map[types.ServerID]uint64, len(e.redCut))
	for s, v := range e.redCut {
		redCut[s] = v
	}
	known := make(map[types.ServerID]uint64, len(e.greenKnown))
	for s, v := range e.greenKnown {
		known[s] = v
	}
	return stateMsg{
		Server:        e.id,
		Conf:          e.conf.ID,
		Round:         e.exchRound,
		RedCut:        redCut,
		GreenCount:    e.queue.greenCount(),
		BaseGreen:     e.queue.base,
		GreenSeqKnown: known,
		AttemptIndex:  e.attemptIndex,
		Prim:          e.prim,
		Vuln:          e.vuln,
		Yellow:        e.yellow,
	}
}

// endOfRetrans implements the paper's End_of_retrans: incorporate green
// lines, compute knowledge, and either start constructing the primary
// component or settle into NonPrim.
func (e *Engine) endOfRetrans() {
	// Every member's red cut now equals the plan's maxRedCut, so the
	// buffered live actions — delivered in the same total order to all —
	// are accepted or rejected identically everywhere.
	e.flushLiveBuf()
	v := &e.verdict
	for srv, n := range v.greenKnown {
		e.greenKnown[srv] = max(e.greenKnown[srv], n)
	}
	e.prim, e.attemptIndex, e.yellow, e.vuln = v.prim, v.attempt, v.yellow, v.vuln[e.id]
	if !e.exchStart.IsZero() {
		e.om.exchDur.ObserveDuration(time.Since(e.exchStart))
		e.exchStart = time.Time{}
	}
	if v.quorum {
		e.obs.Trace.Record(obs.EvExchangeEnd, e.om.exchanges.Value(), 1, v.input)
		e.attemptIndex++
		e.vuln = Vulnerable{
			Status:       true,
			PrimIndex:    e.prim.PrimIndex,
			AttemptIndex: e.attemptIndex,
			Set:          append([]types.ServerID(nil), e.conf.Members...),
			Bits:         map[types.ServerID]bool{e.id: true},
		}
		e.persistState()
		e.syncLog("construct")
		c := cpcMsg{Server: e.id, Conf: e.conf.ID}
		_ = multicastMsg(e.gc, engineMsg{Kind: emCPC, CPC: &c})
		e.setState(Construct)
		return
	}
	e.obs.Trace.Record(obs.EvExchangeEnd, e.om.exchanges.Value(), 0, v.input)
	e.persistState()
	e.syncLog("nonprim")
	e.setState(NonPrim)
	e.rebuildDirtyOverlay()
	e.handleBuffered()
	e.processPendingJoins()
	e.regenerateOngoing()
	e.collectWhite()
}

// flushLiveBuf moves actions buffered during an exchange into the red
// zone (in their total-order arrival sequence).
func (e *Engine) flushLiveBuf() {
	if len(e.liveBuf) == 0 {
		return
	}
	buf := e.liveBuf
	e.liveBuf = nil
	e.markRedBatch(buf, true)
}

// regenerateOngoing re-multicasts locally created actions that never
// reached this server's own red cut: their original multicast died with
// an old configuration (membership changed between creation and
// delivery). The ongoing queue exists precisely so such actions are
// never lost (paper A.14); without re-sending them, the client's action
// would sit in limbo until this server next recovers from its log.
// Actions still waiting in the generate queue were never multicast and
// may not be durable yet: they are left to their flush, which — holding
// the same lock — cannot overtake the older actions re-sent here.
func (e *Engine) regenerateOngoing() {
	e.gen.mu.Lock()
	defer e.gen.mu.Unlock()
	stop := uint64(math.MaxUint64)
	if len(e.gen.acts) > 0 {
		stop = e.gen.acts[0].ID.Index
	}
	var acts []types.Action
	for idx := e.redCut[e.id] + 1; idx < stop; idx++ {
		a, ok := e.ongoing[types.ActionID{Server: e.id, Index: idx}]
		if !ok {
			break
		}
		acts = append(acts, a)
	}
	for len(acts) > 0 {
		n := min(e.maxBatch, len(acts))
		e.generateBatch(acts[:n])
		acts = acts[n:]
	}
}

// install implements the paper's Install procedure: yellow actions turn
// green first (their order was fixed by the previous primary), then the
// remaining red actions in canonical action-id order; the primary
// component counters advance; everything is forced to disk.
func (e *Engine) install() {
	if e.yellow.Status {
		e.applyGreenBatch(e.queuedActions(e.yellow.Set)) // OR-1.2
	}
	e.om.installs.Inc()
	e.yellow = Yellow{}
	e.prim.PrimIndex++
	e.prim.AttemptIndex = e.attemptIndex
	e.prim.Servers = append([]types.ServerID(nil), e.vuln.Set...)
	e.attemptIndex = 0
	e.recordInstall(e.prim)
	e.obs.Trace.Record(obs.EvInstall, uint64(e.prim.PrimIndex), uint64(e.prim.AttemptIndex), uint64(len(e.prim.Servers)))
	e.obs.Log.Info("primary installed",
		"server", string(e.id), "conf", e.conf.ID, "state", e.st.String(),
		"prim", e.prim.PrimIndex, "members", len(e.prim.Servers))
	e.applyGreenBatch(e.queue.redsCanonical()) // OR-2
	e.db.ResetDirty()
	e.persistState()
	e.syncLog("install")
	e.collectWhite()
}

// markRedBatch implements the paper's MarkRed for a bundle of n >= 1
// actions: accept each action that extends its creator's FIFO cut, append
// it to the red zone, and log every accepted action in ONE WAL record,
// which records track for replay. With track set, the accepted actions
// are then tracked (relaxed ones
// applied eagerly, strict ones fed to the dirty overlay) in batch order —
// equivalent to marking and tracking them one by one, because trackRed
// never consults the log or the FIFO cuts. Returns the accepted actions in
// a buffer the next call reuses.
func (e *Engine) markRedBatch(acts []types.Action, track bool) []types.Action {
	accepted := e.scratch.accepted[:0]
	for _, a := range acts {
		if e.redCut[a.ID.Server] != a.ID.Index-1 {
			continue // duplicate or out-of-order retransmission
		}
		e.redCut[a.ID.Server] = a.ID.Index
		e.queue.appendRed(a)
		if a.ID.Server == e.id {
			// Generated here: the action entered the queue, so the ongoing
			// copy has served its purpose (paper A.14 deletes it).
			delete(e.ongoing, a.ID)
		}
		accepted = append(accepted, a)
	}
	e.scratch.accepted = accepted
	if len(accepted) == 0 {
		return accepted
	}
	e.appendLog(logRecord{Kind: recRedBatch, Actions: accepted, Track: track})
	if track {
		for _, a := range accepted {
			e.trackRed(a)
		}
	}
	return accepted
}

// trackRed handles a red action that may stay red for a while: relaxed-
// semantics actions apply eagerly; strict updates feed the dirty overlay.
func (e *Engine) trackRed(a types.Action) {
	if a.Type != types.ActionUpdate && a.Type != types.ActionQuery {
		return
	}
	switch a.Semantics {
	case types.SemCommutative, types.SemTimestamp:
		if a.Client != "" {
			// A keyed relaxed action whose key already applied here — as a
			// recorded green, or eagerly under another action id — answers
			// without a second apply. The copy stays red and resolves at
			// green time through the dedup paths in applyGreen.
			if kind, ent := e.dedupLookup(a.Client, a.ClientSeq); kind != dedupFresh {
				e.om.duplicates.Inc()
				e.obs.Trace.Record(obs.EvDedupHit, 3, 0, 0)
				delete(e.inflight, idemKey{a.Client, a.ClientSeq})
				e.reply(a.ID, dedupReply(kind, ent))
				return
			}
			if e.eagerApplied[idemKey{a.Client, a.ClientSeq}] {
				e.om.duplicates.Inc()
				e.obs.Trace.Record(obs.EvDedupHit, 3, 0, 0)
				delete(e.inflight, idemKey{a.Client, a.ClientSeq})
				e.reply(a.ID, Reply{})
				return
			}
		}
		var errStr string
		if len(a.Update) > 0 {
			if err := e.db.Apply(a.Update); err != nil {
				errStr = err.Error()
			}
		}
		e.appliedRed[a.ID] = true
		if a.Client != "" {
			e.eagerApplied[idemKey{a.Client, a.ClientSeq}] = true
			delete(e.inflight, idemKey{a.Client, a.ClientSeq})
		}
		// Relaxed clients get their answer immediately (paper § 6).
		r := Reply{Err: errStr}
		if errStr == "" && len(a.Query) > 0 {
			if res, err := e.db.QueryGreen(a.Query); err == nil {
				r.Result = res
			} else {
				r.Err = err.Error()
			}
		}
		e.reply(a.ID, r)
	default:
		// Replay skips the overlay: recover rebuilds it once at the end.
		if len(a.Update) > 0 && !e.replaying {
			_ = e.db.ApplyDirty(a.Update)
		}
	}
}

// markYellow implements the paper's MarkYellow for a delivered bundle.
func (e *Engine) markYellow(acts []types.Action) {
	e.markRedBatch(acts, false)
	for _, a := range acts {
		if !e.queue.has(a.ID) || e.queue.isGreen(a.ID) || slices.Contains(e.yellow.Set, a.ID) {
			continue
		}
		e.yellow.Set = append(e.yellow.Set, a.ID)
	}
}

// applyGreen is applyGreenBatch's per-action arm, for the actions a fused
// run cannot take: Join/Leave, a dedup hit, an eager-applied copy, a
// query. It promotes the action to green, applies it to the database,
// logs it, answers the local client, and processes reconfiguration
// actions (paper MarkGreen + CodeSegment 5.1).
func (e *Engine) applyGreen(a types.Action) {
	seq, err := e.queue.promote(a.ID)
	if err != nil {
		return
	}
	e.om.applied.Inc()
	e.appendLog(logRecord{Kind: recGreenBatch, IDs: []types.ActionID{a.ID}})
	e.histMu.Lock()
	e.history = append(e.history, a.ID)
	e.histMu.Unlock()
	e.notifyWatchers()
	e.greenKnown[e.id] = e.queue.greenCount()
	if a.ID.Index > e.orderedIdx[a.ID.Server] {
		e.orderedIdx[a.ID.Server] = a.ID.Index
	}

	switch a.Type {
	case types.ActionJoin:
		e.applyJoin(a, seq)
		return
	case types.ActionLeave:
		e.applyLeave(a)
		return
	}

	if a.Client != "" {
		delete(e.inflight, idemKey{a.Client, a.ClientSeq})
		// Keyed dedup, driven by the green order so it is identical
		// everywhere: a second green copy of the same (client, seq) — a
		// retry that was ordered through another replica — must never
		// apply again. The duplicate still occupies its green position
		// (the total order already fixed that); only its effect is
		// suppressed, and its waiters get the original outcome.
		if kind, ent := e.dedupLookup(a.Client, a.ClientSeq); kind != dedupFresh {
			e.om.duplicates.Inc()
			e.obs.Trace.Record(obs.EvDedupHit, 1, 0, 0)
			delete(e.appliedRed, a.ID) // eager copy resolved by the dup
			e.reply(a.ID, dedupReply(kind, ent))
			e.releaseQueries(a.ID)
			return
		}
	}

	if e.appliedRed[a.ID] {
		// Relaxed action already applied (and answered) while red.
		delete(e.appliedRed, a.ID)
		if a.Client != "" {
			delete(e.eagerApplied, idemKey{a.Client, a.ClientSeq})
			e.recordDedup(a.Client, a.ClientSeq, DedupEntry{GreenSeq: seq})
		}
		return
	}
	if a.Client != "" && e.eagerApplied[idemKey{a.Client, a.ClientSeq}] {
		// A different copy of this key (another action id, same retry) was
		// applied eagerly here while red: this green copy fixes the global
		// position but must not re-apply the update.
		delete(e.eagerApplied, idemKey{a.Client, a.ClientSeq})
		e.recordDedup(a.Client, a.ClientSeq, DedupEntry{GreenSeq: seq})
		e.reply(a.ID, Reply{GreenSeq: seq})
		e.releaseQueries(a.ID)
		return
	}
	var errStr string
	if len(a.Update) > 0 {
		if err := e.db.Apply(a.Update); err != nil {
			errStr = err.Error()
		}
	}
	r := Reply{GreenSeq: seq, Err: errStr}
	if errStr == "" && len(a.Query) > 0 {
		if res, qerr := e.db.QueryGreen(a.Query); qerr == nil {
			r.Result = res
		} else {
			r.Err = qerr.Error()
		}
	}
	if a.Client != "" {
		e.recordDedup(a.Client, a.ClientSeq, DedupEntry{GreenSeq: seq, Err: r.Err, Result: r.Result})
	}
	e.reply(a.ID, r)
	e.releaseQueries(a.ID)
}

// applyGreenBatch promotes a bundle of queued actions to green in bundle
// order; it is the one green path of live delivery, exchange
// retransmission, install and replay. Actions not in the queue or already
// green are skipped. Runs of "plain" update actions — no query to answer,
// no eager-applied or deduplicated copy to resolve, no reconfiguration —
// fuse into one applyGreenRun: one WAL record, one db.ApplyBatch under a
// single lock acquisition, replies and dedup entries fanned back out per
// action. Any action needing the per-action machinery flushes the pending
// run first and goes through applyGreen, so the observable order is
// exactly the sequential one.
func (e *Engine) applyGreenBatch(acts []types.Action) {
	sc := &e.scratch
	if sc.runKeys == nil {
		sc.runKeys = make(map[idemKey]bool)
	}
	run := sc.run[:0]
	flush := func() {
		if len(run) == 0 {
			return
		}
		e.applyGreenRun(run)
		run = run[:0]
		clear(sc.runKeys)
	}
	for _, a := range acts {
		if !e.queue.has(a.ID) || e.queue.isGreen(a.ID) {
			continue // stale duplicate below the red cut, or already green
		}
		if e.plainGreen(a, sc.runKeys) {
			if a.Client != "" {
				sc.runKeys[idemKey{a.Client, a.ClientSeq}] = true
			}
			run = append(run, a)
			continue
		}
		flush()
		e.applyGreen(a)
	}
	flush()
	sc.run = run
}

// queuedActions returns the queued actions among ids, in ids' order.
func (e *Engine) queuedActions(ids []types.ActionID) []types.Action {
	acts := make([]types.Action, 0, len(ids))
	for _, id := range ids {
		if a, ok := e.queue.get(id); ok {
			acts = append(acts, a)
		}
	}
	return acts
}

// plainGreen reports whether a green promotion of a can take the fused
// path: a pure update whose apply, dedup record, and reply need no state
// from the per-action branches of applyGreen. runKeys excludes a second
// copy of an idempotency key already fused in the current run — it must
// observe the first copy's dedup entry, so it takes the slow path after
// a flush.
func (e *Engine) plainGreen(a types.Action, runKeys map[idemKey]bool) bool {
	if a.Type != types.ActionUpdate || len(a.Update) == 0 || len(a.Query) > 0 {
		return false
	}
	if e.appliedRed[a.ID] {
		return false
	}
	if a.Client != "" {
		k := idemKey{a.Client, a.ClientSeq}
		if runKeys[k] || e.eagerApplied[k] {
			return false
		}
		if kind, _ := e.dedupLookup(a.Client, a.ClientSeq); kind != dedupFresh {
			return false
		}
	}
	return true
}

// applyGreenRun is the fused form of applyGreen for a run of plain
// updates: promote all, ONE green WAL record, ONE history/watcher pass,
// ONE db.ApplyBatch — the updates apply in total order under one lock
// acquisition, its duration observed as the engine loop's apply stall —
// then per-action replies, dedup entries, and query releases fan back
// out.
func (e *Engine) applyGreenRun(run []types.Action) {
	sc := &e.scratch
	seqs, updates, ids := sc.seqs[:0], sc.updates[:0], sc.ids[:0]
	n := 0
	for _, a := range run {
		seq, err := e.queue.promote(a.ID)
		if err != nil {
			continue
		}
		run[n] = a
		seqs, updates, ids = append(seqs, seq), append(updates, a.Update), append(ids, a.ID)
		n++
	}
	sc.seqs, sc.updates, sc.ids = seqs, updates, ids
	if n == 0 {
		return
	}
	run = run[:n]
	e.om.applied.Add(uint64(n))
	e.appendLog(logRecord{Kind: recGreenBatch, IDs: ids})
	e.histMu.Lock()
	e.history = append(e.history, ids...)
	e.histMu.Unlock()
	e.notifyWatchers()
	e.greenKnown[e.id] = e.queue.greenCount()
	for _, a := range run {
		if a.ID.Index > e.orderedIdx[a.ID.Server] {
			e.orderedIdx[a.ID.Server] = a.ID.Index
		}
	}
	start := time.Now()
	errs := e.db.ApplyBatch(updates)
	e.om.applyStall.ObserveDuration(time.Since(start))
	for i, a := range run {
		var errStr string
		if errs[i] != nil {
			errStr = errs[i].Error()
		}
		if a.Client != "" {
			delete(e.inflight, idemKey{a.Client, a.ClientSeq})
			e.recordDedup(a.Client, a.ClientSeq, DedupEntry{GreenSeq: seqs[i], Err: errStr})
		}
		e.reply(a.ID, Reply{GreenSeq: seqs[i], Err: errStr})
		e.releaseQueries(a.ID)
	}
}

// releaseQueries answers fast-path queries that were waiting for a local
// action to apply, and clears the pending marker when the last local
// action has landed.
func (e *Engine) releaseQueries(id types.ActionID) {
	if id.Server != e.id {
		return
	}
	if waiting, ok := e.queryWait[id]; ok {
		delete(e.queryWait, id)
		for _, req := range waiting {
			e.answerQuery(req)
		}
	}
	if e.lastLocalPending == id {
		e.lastLocalPending = types.ActionID{}
	}
}

// rebuildDirtyOverlay recomputes the dirty view from the current red zone
// (after exchanges change the red set).
func (e *Engine) rebuildDirtyOverlay() {
	e.db.ResetDirty()
	for _, a := range e.queue.reds() {
		if a.Type == types.ActionUpdate && a.Semantics == types.SemStrict && len(a.Update) > 0 {
			if !e.appliedRed[a.ID] {
				_ = e.db.ApplyDirty(a.Update)
			}
		}
	}
}

// collectWhite discards actions known green at every server in the
// replica set (paper: white actions can be discarded).
func (e *Engine) collectWhite() {
	min := e.queue.greenCount()
	for s := range e.serverSet {
		if v := e.greenKnown[s]; v < min {
			min = v
		}
	}
	e.queue.discardWhite(min)
}
