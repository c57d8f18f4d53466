package core

import (
	"cmp"
	"hash/fnv"
	"slices"

	"evsdb/internal/quorum"
	"evsdb/internal/types"
)

// verdict is what every member of an exchange decides from the full set
// of Safe-delivered state messages (paper A.4-A.6 "Retrans",
// ComputeKnowledge and IsQuorum). decide computes it; the engine stores
// it once per round and applies it.
type verdict struct {
	// The retransmission plan. greenTarget is the green count every
	// member should reach; blocked says it is below the highest green
	// count reported, because some green positions have no live holder
	// (white-collected at every knowledgeable member present). Then the
	// green states cannot be equalized by retransmission and snapSender
	// sends a § 5.2 catch-up snapshot instead.
	greenTarget uint64
	blocked     bool
	snapSender  types.ServerID
	greenChunks []greenChunk
	redRanges   []redRange                // per creator, in creator order
	maxRedCut   map[types.ServerID]uint64 // the union red cut every member should reach

	// ComputeKnowledge: the adopted primary component, attempt index and
	// yellow set, every reporter's vulnerable record after the rules,
	// and the highest green count known reached at each server.
	prim       PrimComponent
	attempt    uint64
	yellow     Yellow
	vuln       map[types.ServerID]Vulnerable
	greenKnown map[types.ServerID]uint64

	// quorum: the members may try to install a primary component.
	quorum bool
	// input hashes the state messages in member order, so a trace shows
	// whether two members decided from the same set.
	input uint64
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

// decide computes the exchange verdict from the state message of every
// member. It reads nothing else — no engine field, no clock — and ranges
// members and creators in sorted order; the maps it ranges otherwise feed
// only a max or a union. So every member that Safe-delivers the same
// state messages reaches the same verdict, which Theorems 1 and 2 rest
// on.
func decide(members []types.ServerID, msgs map[types.ServerID]stateMsg, quo quorum.System) verdict {
	ids := slices.Clone(members)
	types.SortServerIDs(ids)
	v := verdict{
		maxRedCut:  make(map[types.ServerID]uint64),
		vuln:       make(map[types.ServerID]Vulnerable, len(ids)),
		greenKnown: make(map[types.ServerID]uint64, len(ids)),
	}
	h := fnv.New64a()
	for _, m := range ids {
		h.Write(appendJSON(nil, msgs[m]))
	}
	v.input = h.Sum64()

	// Green positions. Members rank by green count, highest first, ties
	// to the lowest id. Each position is retransmitted by the first
	// ranked member that still holds it (its white-collection base is
	// below the position); runs of equal holders form chunks. The first
	// ranked member of all sends the catch-up snapshot.
	ranked := slices.Clone(ids)
	slices.SortStableFunc(ranked, func(a, b types.ServerID) int {
		return cmp.Compare(msgs[b].GreenCount, msgs[a].GreenCount)
	})
	v.snapSender = ranked[0]
	v.greenTarget = msgs[ranked[0]].GreenCount
	for p := msgs[ranked[len(ranked)-1]].GreenCount + 1; p <= v.greenTarget; p++ {
		i := slices.IndexFunc(ranked, func(m types.ServerID) bool {
			return msgs[m].GreenCount >= p && msgs[m].BaseGreen < p
		})
		if i < 0 {
			// Unservable hole: equalization stops just below it.
			v.greenTarget, v.blocked = p-1, true
			break
		}
		if n := len(v.greenChunks); n > 0 && v.greenChunks[n-1].holder == ranked[i] {
			v.greenChunks[n-1].to = p
			continue
		}
		v.greenChunks = append(v.greenChunks, greenChunk{from: p, to: p, holder: ranked[i]})
	}

	// Red ranges: per creator, from the minimum to the maximum red cut,
	// retransmitted by the member holding the most (ties to lowest id).
	// The pass that gathers the creators gathers the green lines too.
	var creators []types.ServerID
	for _, m := range ids {
		s := msgs[m]
		for c := range s.RedCut {
			creators = append(creators, c)
		}
		for srv, n := range s.GreenSeqKnown {
			v.greenKnown[srv] = max(v.greenKnown[srv], n)
		}
		v.greenKnown[m] = max(v.greenKnown[m], s.GreenCount)
	}
	types.SortServerIDs(creators)
	for _, c := range slices.Compact(creators) {
		minCut, maxCut, holder := msgs[ids[0]].RedCut[c], uint64(0), types.ServerID("")
		for _, m := range ids {
			cut := msgs[m].RedCut[c]
			minCut = min(minCut, cut)
			if holder == "" || cut > maxCut {
				maxCut, holder = cut, m
			}
		}
		v.maxRedCut[c] = maxCut
		if maxCut > minCut {
			v.redRanges = append(v.redRanges, redRange{creator: c, from: minCut + 1, to: maxCut, holder: holder})
		}
	}

	// ComputeKnowledge 1. Adopt the most recent primary component; the
	// updated group are the members that report it.
	for i, m := range ids {
		if p := msgs[m].Prim; i == 0 || v.prim.Less(p) {
			v.prim = p
		}
	}
	var valid []types.ServerID
	for _, m := range ids {
		if s := msgs[m]; s.Prim.Equal(v.prim) {
			v.attempt = max(v.attempt, s.AttemptIndex)
			if s.Yellow.Status {
				valid = append(valid, m)
			}
		}
	}

	// 2. Yellow knowledge: the intersection of the valid group's yellow
	// sets, preserving the (shared) order.
	if len(valid) > 0 {
		v.yellow.Status = true
		for _, id := range msgs[valid[0]].Yellow.Set {
			if !slices.ContainsFunc(valid[1:], func(m types.ServerID) bool {
				return !slices.Contains(msgs[m].Yellow.Set, id)
			}) {
				v.yellow.Set = append(v.yellow.Set, id)
			}
		}
	}

	// 3. Invalidate vulnerability that is provably moot: the server is
	// outside the newest primary's membership, or some member of its
	// attempt set reported a non-identical vulnerable record.
	// 4. Union the bits of the servers that reported vulnerability to the
	// same attempt (each reporter proves it did not install); when every
	// member of the attempt set is accounted for, the attempt provably
	// failed everywhere and the vulnerability dissolves.
	// Both rules read the reports only. A record rule 3 clears still
	// proves its reporter did not install, but says nothing about how the
	// attempt ended, so clearing one record never clears another. IsQuorum
	// then needs every record clear, green states that can be equalized,
	// and a quorum of the adopted primary.
	v.quorum = !v.blocked && quo.IsQuorum(ids, v.prim.Servers)
	for _, id := range ids {
		r := msgs[id].Vuln
		if r.Status {
			r.Status = slices.Contains(v.prim.Servers, id) && !slices.ContainsFunc(r.Set, func(q types.ServerID) bool {
				// A q that did not report proves nothing.
				s, ok := msgs[q]
				return ok && (!s.Vuln.Status || !s.Vuln.sameAttempt(r))
			})
		}
		if r.Status {
			union := make(map[types.ServerID]bool, len(r.Set))
			for _, q := range ids {
				if qr := msgs[q].Vuln; qr.Status && qr.sameAttempt(r) {
					union[q] = true
					for b, set := range qr.Bits {
						if set {
							union[b] = true
						}
					}
				}
			}
			r.Bits = union
			r.Status = slices.ContainsFunc(r.Set, func(m types.ServerID) bool { return !union[m] })
			v.quorum = v.quorum && !r.Status
		}
		v.vuln[id] = r
	}
	return v
}

// retransmitShare multicasts this member's assigned green chunks and red
// ranges (paper Retrans()).
func (e *Engine) retransmitShare() {
	for _, ch := range e.verdict.greenChunks {
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
	for _, rr := range e.verdict.redRanges {
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
	if e.st != ExchangeActions || e.queue.greenCount() < e.verdict.greenTarget {
		return
	}
	for c, cut := range e.verdict.maxRedCut {
		if e.redCut[c] < cut {
			return
		}
	}
	e.endOfRetrans()
}
