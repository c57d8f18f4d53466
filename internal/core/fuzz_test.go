package core

import (
	"fmt"
	"math/rand"
	"testing"

	"evsdb/internal/db"
	"evsdb/internal/types"
)

// TestEngineRandomEventSequences drives a single engine with long random
// — but EVS-contract-respecting — event sequences and checks structural
// invariants after every event:
//
//   - the engine never panics and never regresses its green count;
//   - green actions stay FIFO per creator (Theorem 2 locally);
//   - the red cut never runs behind the green knowledge.
//
// The generator models three peers plus the engine itself: regular
// configurations over random subsets (engine always included), a
// transitional configuration before every new regular one, state messages
// for the current configuration from all members, CPC messages, and
// actions with per-creator FIFO indexes.
func TestEngineRandomEventSequences(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			servers := []string{"a", "b", "c", "d"}
			e, gc, _ := testEngine(t, "a", servers...)

			nextIdx := map[string]uint64{}
			confCounter := uint64(0)
			inRegular := false // a regular conf delivered since last trans

			newConf := func() types.Configuration {
				confCounter++
				members := []string{"a"}
				for _, s := range servers[1:] {
					if rng.Intn(2) == 0 {
						members = append(members, s)
					}
				}
				return conf(confCounter, members...)
			}
			cur := newConf()

			deliverStates := func() {
				// The engine's own state message comes back plus peers'.
				var mine *stateMsg
				for _, m := range gc.take() {
					if m.Kind == emState {
						mine = m.State
					}
				}
				if mine != nil {
					e.onStateMsg(*mine)
				}
				for _, m := range cur.Members {
					if m == e.id {
						continue
					}
					e.onStateMsg(stateMsg{
						Server: m, Conf: cur.ID,
						RedCut: map[types.ServerID]uint64{}, Prim: e.prim,
					})
				}
			}

			greenPerCreator := map[types.ServerID]uint64{}
			check := func(step int, what string) {
				t.Helper()
				// Green history FIFO per creator and monotone.
				seen := map[types.ServerID]uint64{}
				for _, id := range e.history {
					if id.Index <= seen[id.Server] {
						t.Fatalf("step %d (%s): green FIFO violated for %s: %d after %d",
							step, what, id.Server, id.Index, seen[id.Server])
					}
					seen[id.Server] = id.Index
				}
				for s, n := range seen {
					if n < greenPerCreator[s] {
						t.Fatalf("step %d (%s): green knowledge regressed for %s", step, what, s)
					}
					greenPerCreator[s] = n
				}
				// The red cut covers everything ordered.
				for s, n := range seen {
					if e.redCut[s] < n {
						t.Fatalf("step %d (%s): redCut[%s]=%d < greens %d",
							step, what, s, e.redCut[s], n)
					}
				}
			}

			e.onRegConf(cur)
			inRegular = true
			deliverStates()

			for step := 0; step < 400; step++ {
				var what string
				switch rng.Intn(10) {
				case 0, 1: // view change: trans conf then a new regular conf
					if inRegular {
						e.onTransConf(transConf(cur, "a"))
						inRegular = false
						what = "trans-conf"
					} else {
						cur = newConf()
						e.onRegConf(cur)
						inRegular = true
						deliverStates()
						what = "reg-conf"
					}
				case 2: // CPC from a random member
					m := cur.Members[rng.Intn(len(cur.Members))]
					e.onCPC(cpcMsg{Server: m, Conf: cur.ID})
					what = "cpc"
				case 3: // client submit
					submitOne(e, submitReq{
						action: types.Action{Type: types.ActionUpdate,
							Update: db.EncodeUpdate(db.Set("k", "v"))},
						ch: make(chan Reply, 1),
					})
					what = "submit"
					// Self-generated actions come back through the group;
					// deliver anything the engine multicast.
					for _, m := range gc.take() {
						if m.Kind == emBatch {
							deliver(e, m.Batch...)
						}
					}
				default: // a peer's action, FIFO per creator
					s := servers[1+rng.Intn(3)]
					nextIdx[s]++
					deliver(e, types.Action{
						ID:   types.ActionID{Server: types.ServerID(s), Index: nextIdx[s]},
						Type: types.ActionUpdate,
						Update: db.EncodeUpdate(
							db.Set(fmt.Sprintf("%s-%d", s, nextIdx[s]), "v")),
					})
					what = "peer-action"
				}
				check(step, what)
			}
		})
	}
}
