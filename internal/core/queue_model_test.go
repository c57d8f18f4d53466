package core

import (
	"math/rand"
	"sort"
	"testing"

	"evsdb/internal/types"
)

// modelQueue is the naive reference actionsQueue is checked against: one
// slice in queue order, linear searches, and a fresh slice on every
// discard — what the queue did before whites were dropped in place.
type modelQueue struct {
	base   uint64
	list   []types.Action
	greens int
}

func (m *modelQueue) index(id types.ActionID) int {
	for i, a := range m.list {
		if a.ID == id {
			return i
		}
	}
	return -1
}

func (m *modelQueue) appendRed(a types.Action) { m.list = append(m.list, a) }

func (m *modelQueue) promote(id types.ActionID) (uint64, bool) {
	i := m.index(id)
	if i < 0 {
		return 0, false
	}
	if i < m.greens {
		return m.base + uint64(i) + 1, true
	}
	a := m.list[i]
	rest := append(append([]types.Action(nil), m.list[m.greens:i]...), m.list[i+1:]...)
	m.list = append(append(m.list[:m.greens:m.greens], a), rest...)
	m.greens++
	return m.base + uint64(m.greens), true
}

func (m *modelQueue) discardWhite(upto uint64) {
	if max := m.base + uint64(m.greens); upto > max {
		upto = max
	}
	if upto <= m.base {
		return
	}
	drop := int(upto - m.base)
	m.list = append([]types.Action(nil), m.list[drop:]...)
	m.greens -= drop
	m.base = upto
}

// requireQueueMatchesModel compares every observer of the queue with the
// model, for every id ever appended (so discarded ids are probed too).
func requireQueueMatchesModel(t *testing.T, step int, q *actionsQueue, m *modelQueue, ever []types.ActionID) {
	t.Helper()
	if q.greenCount() != m.base+uint64(m.greens) || q.redCount() != len(m.list)-m.greens {
		t.Fatalf("step %d: counts green=%d red=%d, model green=%d red=%d",
			step, q.greenCount(), q.redCount(), m.base+uint64(m.greens), len(m.list)-m.greens)
	}
	for _, id := range ever {
		i := m.index(id)
		if q.has(id) != (i >= 0) || q.isGreen(id) != (i >= 0 && i < m.greens) {
			t.Fatalf("step %d: %v has=%v isGreen=%v, model index %d of %d greens",
				step, id, q.has(id), q.isGreen(id), i, m.greens)
		}
		if a, ok := q.get(id); ok != (i >= 0) || (ok && a.ID != id) {
			t.Fatalf("step %d: get(%v) = %v %v, model index %d", step, id, a.ID, ok, i)
		}
	}
	for seq := uint64(0); seq <= q.greenCount()+1; seq++ {
		a, ok := q.greenAt(seq)
		want := seq > m.base && seq <= m.base+uint64(m.greens)
		if ok != want || (ok && a.ID != m.list[seq-m.base-1].ID) {
			t.Fatalf("step %d: greenAt(%d) = %v %v, model held=%v", step, seq, a.ID, ok, want)
		}
	}
	reds, wantReds := q.reds(), m.list[m.greens:]
	canon := append([]types.Action(nil), wantReds...)
	sort.Slice(canon, func(i, j int) bool { return canon[i].ID.Less(canon[j].ID) })
	gotCanon := q.redsCanonical()
	if len(reds) != len(wantReds) || len(gotCanon) != len(canon) {
		t.Fatalf("step %d: %d reds, %d canonical, model %d", step, len(reds), len(gotCanon), len(wantReds))
	}
	for i := range wantReds {
		if reds[i].ID != wantReds[i].ID || gotCanon[i].ID != canon[i].ID {
			t.Fatalf("step %d: red[%d] = %v (canonical %v), model %v (canonical %v)",
				step, i, reds[i].ID, gotCanon[i].ID, wantReds[i].ID, canon[i].ID)
		}
	}
}

// TestQueueMatchesModel drives 10k seeded random appendRed / promote /
// discardWhite steps through the queue and the model and compares every
// observer after each one. The step mix reaches discard-to-empty, a
// discard clamped to the green count, and the promotion of a mid-red
// entry after a discard; the test fails if a seed change loses one.
func TestQueueMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	q, m := newActionsQueue(), &modelQueue{}
	var ever []types.ActionID
	next := map[string]uint64{}
	var toEmpty, clamped, midRedAfterDiscard int
	discarded := false
	for step := 0; step < 10000; step++ {
		switch r := rng.Intn(10); {
		case r < 4:
			server := []string{"s1", "s2", "s3"}[rng.Intn(3)]
			next[server]++
			a := mkAction(server, next[server])
			a.Update = []byte{byte(step)}
			q.appendRed(a)
			m.appendRed(a)
			ever = append(ever, a.ID)
			if len(ever) > 96 { // keep the linear model cheap; old ids stay probed for a while
				ever = ever[1:]
			}
		case r < 8:
			id := types.ActionID{Server: "s9", Index: 1} // never appended
			if reds := m.list[m.greens:]; len(reds) > 0 && rng.Intn(20) > 0 {
				i := rng.Intn(len(reds))
				if i > 0 && discarded {
					midRedAfterDiscard++
				}
				id = reds[i].ID
			} else if m.greens > 0 && rng.Intn(2) == 0 {
				id = m.list[rng.Intn(m.greens)].ID // already green: idempotent
			}
			seq, err := q.promote(id)
			wantSeq, ok := m.promote(id)
			if (err == nil) != ok || seq != wantSeq {
				t.Fatalf("step %d: promote(%v) = %d %v, model %d %v", step, id, seq, err, wantSeq, ok)
			}
		default:
			upto := m.base + uint64(rng.Intn(m.greens+3))
			if rng.Intn(8) == 0 {
				upto = m.base + uint64(m.greens) + 5 // beyond the greens: clamps
				clamped++
			}
			if rng.Intn(8) == 0 && m.base > 0 {
				upto = m.base - 1 // below the base: no-op
			}
			q.discardWhite(upto)
			m.discardWhite(upto)
			discarded = true
			if len(m.list) == 0 && m.base > 0 {
				toEmpty++
			}
		}
		requireQueueMatchesModel(t, step, q, m, ever)
	}
	if toEmpty == 0 || clamped == 0 || midRedAfterDiscard == 0 {
		t.Fatalf("step mix missed a case: discard-to-empty %d, clamped %d, mid-red promote after discard %d",
			toEmpty, clamped, midRedAfterDiscard)
	}
}

// steadyStateQueue returns a queue holding depth green actions and a
// cycle function: append 64, promote them, discard the 64 oldest greens —
// one engine-loop delivery in RegPrim at a constant queue depth.
func steadyStateQueue(depth int) (*actionsQueue, func()) {
	q := newActionsQueue()
	next := uint64(0)
	appendAndPromote := func(n int) {
		for i := 0; i < n; i++ {
			next++
			a := mkAction("s1", next)
			q.appendRed(a)
			if _, err := q.promote(a.ID); err != nil {
				panic(err)
			}
		}
	}
	appendAndPromote(depth)
	return q, func() {
		appendAndPromote(64)
		q.discardWhite(q.greenCount() - uint64(depth))
	}
}

// TestQueueSteadyStateAllocs: a delivery's queue bookkeeping must not
// allocate in proportion to the queue. Discarding used to copy the whole
// remaining queue (one queue-sized allocation per cycle); now it frees
// slots in place and appendRed reuses them.
func TestQueueSteadyStateAllocs(t *testing.T) {
	q, cycle := steadyStateQueue(2048)
	if avg := testing.AllocsPerRun(500, cycle); avg >= 1 {
		t.Fatalf("steady-state cycle averages %.2f allocs, want < 1", avg)
	}
	if q.redCount() != 0 || len(q.held()) != 2048 || len(q.pos) != 2048 {
		t.Fatalf("queue drifted: %d reds, %d entries, %d positions", q.redCount(), len(q.held()), len(q.pos))
	}
}

func BenchmarkQueueSteadyState(b *testing.B) {
	_, cycle := steadyStateQueue(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
