package core

import (
	"fmt"
	"sort"

	"evsdb/internal/types"
)

// actionsQueue is the ordered list of actions a server knows about
// (paper, Appendix A "actionsQueue"): a prefix of green actions in their
// global order, followed by red actions in local (component delivery)
// order. White actions — green everywhere — are discarded from memory;
// base counts how many have been discarded so global green sequence
// numbers stay stable.
//
// pos holds global positions — the count of actions ordered before this
// one, discarded whites included — so discarding whites changes no
// surviving entry: it only advances head past their zeroed slots, which
// appendRed reclaims when the backing array fills up.
type actionsQueue struct {
	base   uint64         // discarded white actions; global seq of held()[0] is base+1
	list   []types.Action // list[:head] are the zeroed slots of discarded whites
	head   int
	greens int // green entries at the head of held()
	pos    map[types.ActionID]int
}

func newActionsQueue() *actionsQueue {
	return &actionsQueue{pos: make(map[types.ActionID]int)}
}

// held returns the actions in the queue: greens, then reds.
func (q *actionsQueue) held() []types.Action { return q.list[q.head:] }

// greenCount returns the total number of actions ever marked green here.
func (q *actionsQueue) greenCount() uint64 { return q.base + uint64(q.greens) }

// redCount returns the number of red (and yellow) actions held.
func (q *actionsQueue) redCount() int { return len(q.held()) - q.greens }

// has reports whether the action is present (green or red). Discarded
// white actions report false; callers guard with redCut.
func (q *actionsQueue) has(id types.ActionID) bool {
	_, ok := q.pos[id]
	return ok
}

// isGreen reports whether the action is in the green prefix.
func (q *actionsQueue) isGreen(id types.ActionID) bool {
	p, ok := q.pos[id]
	return ok && p-int(q.base) < q.greens
}

// appendRed places a new action at the tail (red zone).
func (q *actionsQueue) appendRed(a types.Action) {
	if len(q.list) == cap(q.list) && q.head > len(q.list)/2 {
		// Mostly discarded slots: move the queue down instead of growing.
		n := copy(q.list, q.held())
		clear(q.list[n:])
		q.list, q.head = q.list[:n], 0
	}
	q.pos[a.ID] = int(q.base) + len(q.held())
	q.list = append(q.list, a)
}

// get returns the action by id.
func (q *actionsQueue) get(id types.ActionID) (types.Action, bool) {
	p, ok := q.pos[id]
	if !ok {
		return types.Action{}, false
	}
	return q.held()[p-int(q.base)], true
}

// promote moves the action just on top of the last green action (paper
// MarkGreen) and returns its global green sequence number. Promoting an
// already-green action returns its existing position.
func (q *actionsQueue) promote(id types.ActionID) (uint64, error) {
	p, ok := q.pos[id]
	if !ok {
		return 0, fmt.Errorf("promote %s: not in queue", id)
	}
	i, list := p-int(q.base), q.held()
	if i < q.greens {
		return q.base + uint64(i) + 1, nil
	}
	a := list[i]
	// Shift the red prefix [greens, i) right by one, preserving the
	// relative red order of the others.
	copy(list[q.greens+1:i+1], list[q.greens:i])
	list[q.greens] = a
	for j := q.greens; j <= i; j++ {
		q.pos[list[j].ID] = int(q.base) + j
	}
	q.greens++
	return q.base + uint64(q.greens), nil
}

// greenAt returns the green action with global sequence seq, if held.
func (q *actionsQueue) greenAt(seq uint64) (types.Action, bool) {
	if seq <= q.base || seq > q.greenCount() {
		return types.Action{}, false
	}
	return q.held()[seq-q.base-1], true
}

// reds returns the red-zone actions in local order (shared backing array;
// callers must not mutate).
func (q *actionsQueue) reds() []types.Action {
	return q.held()[q.greens:]
}

// redsCanonical returns the red actions sorted by action id — the
// deterministic order used when a new primary component is installed
// (paper CodeSegment A.10, OR-2).
func (q *actionsQueue) redsCanonical() []types.Action {
	out := append([]types.Action(nil), q.reds()...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID.Less(out[j].ID) })
	return out
}

// discardWhite drops green actions with global sequence <= upto. They are
// known green at every server and will never be retransmitted. It runs on
// every delivery, so it costs O(dropped) and never allocates: the dropped
// slots are zeroed, so their Update bytes are collectable, and skipped.
func (q *actionsQueue) discardWhite(upto uint64) {
	if upto <= q.base {
		return
	}
	drop := int(min(upto, q.greenCount()) - q.base)
	dropped := q.held()[:drop]
	for _, a := range dropped {
		delete(q.pos, a.ID)
	}
	clear(dropped)
	q.head += drop
	q.greens -= drop
	q.base += uint64(drop)
}
