package core

import (
	"evsdb/internal/types"
)

// retransPlan is the deterministic assignment of retransmission work
// computed identically by every member from the full set of state
// messages (paper A.4/A.6 "Retrans" and "turn to retransmit").
type retransPlan struct {
	// greenTarget is the green count every member should reach.
	greenTarget uint64
	// maxGreen is the highest green count reported; if greenTarget is
	// lower, some green positions have no live holder (white-collected at
	// every knowledgeable member present) and the components' green
	// states cannot be equalized here — quorum is refused.
	maxGreen uint64
	// greenChunks assigns contiguous green ranges to retransmitters.
	greenChunks []greenChunk
	// redRanges assigns per-creator red retransmission.
	redRanges []redRange
	// maxRedCut is the union red cut every member should reach.
	maxRedCut map[types.ServerID]uint64
}

type greenChunk struct {
	from, to uint64 // green sequence numbers, inclusive
	holder   types.ServerID
}

type redRange struct {
	creator  types.ServerID
	from, to uint64 // action indexes, inclusive
	holder   types.ServerID
}

func (p *retransPlan) greensBlocked() bool { return p.greenTarget < p.maxGreen }

// computeRetransPlan derives the retransmission plan from the collected
// state messages.
func (e *Engine) computeRetransPlan() *retransPlan {
	plan := &retransPlan{maxRedCut: make(map[types.ServerID]uint64)}

	minGreen := ^uint64(0)
	for _, s := range e.stateMsgs {
		if s.GreenCount < minGreen {
			minGreen = s.GreenCount
		}
		if s.GreenCount > plan.maxGreen {
			plan.maxGreen = s.GreenCount
		}
	}
	// Assign a holder per green position: the member with the largest
	// green count whose white-collection base is below the position;
	// ties break to the lowest id. Runs of equal holders form chunks.
	plan.greenTarget = plan.maxGreen
	var cur *greenChunk
	for p := minGreen + 1; p <= plan.maxGreen; p++ {
		holder, ok := e.greenHolder(p)
		if !ok {
			// Unservable hole: equalization stops just below it.
			plan.greenTarget = p - 1
			break
		}
		if cur != nil && cur.holder == holder && cur.to == p-1 {
			cur.to = p
			continue
		}
		plan.greenChunks = append(plan.greenChunks, greenChunk{from: p, to: p, holder: holder})
		cur = &plan.greenChunks[len(plan.greenChunks)-1]
	}

	// Red ranges: per creator, from the minimum to the maximum red cut,
	// retransmitted by the member holding the most (ties to lowest id).
	creators := make(map[types.ServerID]bool)
	for _, s := range e.stateMsgs {
		for c := range s.RedCut {
			creators[c] = true
		}
	}
	for c := range creators {
		minCut := ^uint64(0)
		var maxCut uint64
		for _, m := range e.conf.Members {
			cut := e.stateMsgs[m].RedCut[c]
			if cut < minCut {
				minCut = cut
			}
			if cut > maxCut {
				maxCut = cut
			}
		}
		var holder types.ServerID
		for _, m := range e.conf.Members {
			if e.stateMsgs[m].RedCut[c] == maxCut && (holder == "" || m < holder) {
				holder = m
			}
		}
		plan.maxRedCut[c] = maxCut
		if maxCut > minCut {
			plan.redRanges = append(plan.redRanges, redRange{
				creator: c,
				from:    minCut + 1,
				to:      maxCut,
				holder:  holder,
			})
		}
	}
	return plan
}

// greenHolder picks the retransmitter for one green position.
func (e *Engine) greenHolder(p uint64) (types.ServerID, bool) {
	var holder types.ServerID
	var holderCount uint64
	for _, m := range e.conf.Members {
		s := e.stateMsgs[m]
		if s.GreenCount < p || s.BaseGreen >= p {
			continue
		}
		if holder == "" || s.GreenCount > holderCount ||
			(s.GreenCount == holderCount && m < holder) {
			holder = m
			holderCount = s.GreenCount
		}
	}
	return holder, holder != ""
}

// retransmitShare multicasts this member's assigned green chunks and red
// ranges (paper Retrans()).
func (e *Engine) retransmitShare() {
	for _, ch := range e.plan.greenChunks {
		if ch.holder != e.id {
			continue
		}
		for p := ch.from; p <= ch.to; p++ {
			a, ok := e.queue.greenAt(p)
			if !ok {
				continue // collected white under us; every member has it
			}
			e.sendRetrans(retransMsg{Action: a, Green: true, GreenSeq: p})
		}
	}
	for _, rr := range e.plan.redRanges {
		if rr.holder != e.id {
			continue
		}
		for idx := rr.from; idx <= rr.to; idx++ {
			a, ok := e.queue.get(types.ActionID{Server: rr.creator, Index: idx})
			if !ok {
				continue
			}
			e.sendRetrans(retransMsg{Action: a})
		}
	}
}

func (e *Engine) sendRetrans(r retransMsg) {
	e.om.retransmitted.Inc()
	_ = multicastMsg(e.gc, engineMsg{Kind: emRetrans, Retrans: &r})
}

// onRetrans handles a retransmitted action (paper A.6, OR-3): the
// envelope says whether the action is green (with its exact global
// position) or red.
func (e *Engine) onRetrans(r retransMsg) {
	if e.st != ExchangeStates && e.st != ExchangeActions && e.st != NonPrim {
		// Stale retransmission from a previous exchange; marking red is
		// always safe if it extends the FIFO cut.
		e.markRedBatch([]types.Action{r.Action}, false)
		return
	}
	if r.Green {
		e.acceptGreenRetrans(r)
	} else {
		e.markRedBatch([]types.Action{r.Action}, false)
	}
	e.maybeEndRetrans()
}

// acceptGreenRetrans applies green retransmissions strictly in global
// order, buffering out-of-order arrivals (chunks from different holders
// may interleave).
func (e *Engine) acceptGreenRetrans(r retransMsg) {
	have := e.queue.greenCount()
	switch {
	case r.GreenSeq <= have:
		return // already known green
	case r.GreenSeq == have+1:
		e.applyGreenRetrans(r.Action)
		// Drain any buffered successors.
		for {
			next, ok := e.pendingGreen[e.queue.greenCount()+1]
			if !ok {
				break
			}
			delete(e.pendingGreen, e.queue.greenCount()+1)
			e.applyGreenRetrans(next)
		}
	default:
		e.pendingGreen[r.GreenSeq] = r.Action
	}
}

// applyGreenRetrans marks a green retransmission red and promotes it. An
// action that cannot extend its creator's FIFO cut and is not queued is
// dropped (it will be re-requested).
func (e *Engine) applyGreenRetrans(a types.Action) {
	one := []types.Action{a}
	e.markRedBatch(one, false)
	e.applyGreenBatch(one)
}

// maybeEndRetrans checks whether this member holds everything the plan
// promises and, if so, runs End_of_retrans.
func (e *Engine) maybeEndRetrans() {
	if e.st != ExchangeActions || e.plan == nil {
		return
	}
	if e.queue.greenCount() < e.plan.greenTarget {
		return
	}
	for c, cut := range e.plan.maxRedCut {
		if e.redCut[c] < cut {
			return
		}
	}
	e.endOfRetrans()
}

// computeKnowledge implements the paper's ComputeKnowledge procedure.
func (e *Engine) computeKnowledge() {
	// 1. Adopt the most recent primary component; find the updated group.
	var best PrimComponent
	first := true
	for _, s := range e.stateMsgs {
		if first || best.Less(s.Prim) {
			best = s.Prim
			first = false
		}
	}
	var updated []types.ServerID
	for _, m := range e.conf.Members {
		if s, ok := e.stateMsgs[m]; ok && s.Prim.Equal(best) {
			updated = append(updated, m)
		}
	}
	e.prim = PrimComponent{
		PrimIndex:    best.PrimIndex,
		AttemptIndex: best.AttemptIndex,
		Servers:      append([]types.ServerID(nil), best.Servers...),
	}
	var attempt uint64
	var valid []types.ServerID
	for _, m := range updated {
		s := e.stateMsgs[m]
		if s.AttemptIndex > attempt {
			attempt = s.AttemptIndex
		}
		if s.Yellow.Status {
			valid = append(valid, m)
		}
	}
	e.attemptIndex = attempt

	// 2. Yellow knowledge: the intersection of the valid group's yellow
	// sets, preserving the (shared) order.
	if len(valid) > 0 {
		inAll := func(id types.ActionID) bool {
			for _, m := range valid {
				found := false
				for _, x := range e.stateMsgs[m].Yellow.Set {
					if x == id {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			return true
		}
		var set []types.ActionID
		for _, id := range e.stateMsgs[valid[0]].Yellow.Set {
			if inAll(id) {
				set = append(set, id)
			}
		}
		e.yellow = Yellow{Status: true, Set: set}
	} else {
		e.yellow = Yellow{}
	}

	// 3. Invalidate vulnerability that is provably moot: the server is
	// outside the newest primary's membership, or some member of its
	// attempt set reports a non-identical vulnerable record. A record
	// cleared here can make another record moot, and the rule only ever
	// clears, so it runs to a fixpoint: every map order reaches the same
	// one.
	vulnMap := make(map[types.ServerID]Vulnerable, len(e.stateMsgs))
	for id, s := range e.stateMsgs {
		v := s.Vuln
		v.Set = append([]types.ServerID(nil), s.Vuln.Set...)
		v.Bits = make(map[types.ServerID]bool, len(s.Vuln.Bits))
		for b, set := range s.Vuln.Bits {
			v.Bits[b] = set
		}
		vulnMap[id] = v
	}
	primSet := make(map[types.ServerID]bool, len(e.prim.Servers))
	for _, s := range e.prim.Servers {
		primSet[s] = true
	}
	for changed := true; changed; {
		changed = false
		for id, v := range vulnMap {
			if !v.Status {
				continue
			}
			moot := !primSet[id]
			for _, q := range v.Set {
				// A q that did not report proves nothing.
				if qv, ok := vulnMap[q]; ok && (!qv.Status || !qv.sameAttempt(v)) {
					moot = true
					break
				}
			}
			if moot {
				v.Status = false
				vulnMap[id] = v
				changed = true
			}
		}
	}

	// 4. Union the bits of servers vulnerable to the same attempt (each
	// reporter proves it did not install); when every member of the
	// attempt set is accounted for, the attempt provably failed
	// everywhere and the vulnerability dissolves. Unions are computed
	// against a pre-pass snapshot so the outcome is independent of map
	// iteration order.
	snapshot := make(map[types.ServerID]Vulnerable, len(vulnMap))
	for id, v := range vulnMap {
		snapshot[id] = v
	}
	for id, v := range vulnMap {
		if !v.Status {
			continue
		}
		union := make(map[types.ServerID]bool, len(v.Set))
		for b, set := range v.Bits {
			if set {
				union[b] = true
			}
		}
		for q, qv := range snapshot {
			if qv.Status && qv.sameAttempt(v) {
				union[q] = true
				for b, set := range qv.Bits {
					if set {
						union[b] = true
					}
				}
			}
		}
		v.Bits = union
		all := true
		for _, m := range v.Set {
			if !union[m] {
				all = false
				break
			}
		}
		if all {
			v.Status = false
		}
		vulnMap[id] = v
	}

	e.vulnByServer = vulnMap
	if mine, ok := vulnMap[e.id]; ok {
		e.vuln = mine
	}
}

// isQuorum implements the paper's IsQuorum check, extended with the green
// equalization requirement (a primary must not install while members'
// green states differ).
func (e *Engine) isQuorum() bool {
	if e.plan != nil && e.plan.greensBlocked() {
		return false
	}
	for _, m := range e.conf.Members {
		if v, ok := e.vulnByServer[m]; ok && v.Status {
			return false
		}
	}
	return e.quo.IsQuorum(e.conf.Members, e.prim.Servers)
}
