package evs

import (
	"fmt"
	"testing"
	"time"

	"evsdb/internal/transport/memnet"
	"evsdb/internal/types"
)

// confCounters extracts the regular-configuration counters a node
// installed, in order.
func confCounters(evs []Event) []uint64 {
	var out []uint64
	for _, ev := range evs {
		if vc, ok := ev.(ViewChange); ok && !vc.Config.Transitional {
			out = append(out, vc.Config.ID.Counter)
		}
	}
	return out
}

// TestConfCountersMonotonic: every node's installed configuration
// counters strictly increase, across arbitrary partition churn.
func TestConfCountersMonotonic(t *testing.T) {
	h := newHarness(t, 4)
	var all []types.ServerID
	for i := 0; i < 4; i++ {
		all = append(all, serverID(i))
	}
	h.waitView(all, all)
	h.net.Partition(all[:2], all[2:])
	h.waitView(all[:2], all[:2])
	h.net.Partition(all[:1], all[1:3], all[3:])
	time.Sleep(20 * time.Millisecond)
	h.net.Heal()
	h.waitView(all, all)

	for _, id := range all {
		counters := confCounters(h.events(id))
		for i := 1; i < len(counters); i++ {
			if counters[i] <= counters[i-1] {
				t.Fatalf("%s installed non-monotonic counters: %v", id, counters)
			}
		}
	}
}

// TestMergeAdoptsHigherCounter: when two components with different
// configuration histories merge, the merged configuration's counter
// exceeds both sides' maxima (no id reuse).
func TestMergeAdoptsHigherCounter(t *testing.T) {
	h := newHarness(t, 4)
	var all []types.ServerID
	for i := 0; i < 4; i++ {
		all = append(all, serverID(i))
	}
	h.waitView(all, all)
	h.net.Partition(all[:2], all[2:])
	h.waitView(all[:2], all[:2])
	h.waitView(all[2:], all[2:])

	// Churn one side to advance its counter well past the other's.
	for i := 0; i < 3; i++ {
		h.net.Partition(all[:1], all[1:2], all[2:])
		h.waitView(all[:1], all[:1])
		h.net.Partition(all[:2], all[2:])
		h.waitView(all[:2], all[:2])
	}
	leftMax := confCounters(h.events(all[0]))
	rightMax := confCounters(h.events(all[2]))

	h.net.Heal()
	h.waitView(all, all)
	merged, _ := lastRegular(h.events(all[3]))
	if merged.ID.Counter <= leftMax[len(leftMax)-1] || merged.ID.Counter <= rightMax[len(rightMax)-1] {
		t.Fatalf("merged counter %d does not exceed both sides (%d, %d)",
			merged.ID.Counter, leftMax[len(leftMax)-1], rightMax[len(rightMax)-1])
	}
}

// TestStragglerRejoinsAfterFlap is the regression test for the
// same-membership re-gather deadlock: a node that briefly saw a different
// reachability estimate re-gathers toward the SAME member set; peers in
// the regular phase must respond rather than discard the proposal.
func TestStragglerRejoinsAfterFlap(t *testing.T) {
	h := newHarness(t, 3)
	all := []types.ServerID{serverID(0), serverID(1), serverID(2)}
	h.waitView(all, all)

	for round := 0; round < 10; round++ {
		// Blink: isolate one node for an instant, then heal. The blinked
		// node re-gathers with the same final membership.
		victim := all[round%3]
		h.net.Partition([]types.ServerID{victim})
		h.net.Heal()

		// Everyone must converge to a common regular configuration and
		// deliver new traffic.
		h.waitView(all, all)
		marker := fmt.Sprintf("flap-%d", round)
		_ = h.nodes[all[(round+1)%3]].Multicast([]byte(marker), Safe)
		waitFor(t, 10*time.Second, marker, func() bool {
			for _, id := range all {
				if !contains(deliveries(h.events(id)), marker) {
					return false
				}
			}
			return true
		})
	}
}

// TestSingletonChurn: a lone node partitioning away and back repeatedly
// must keep making progress alone (installing singleton configurations).
func TestSingletonChurn(t *testing.T) {
	h := newHarness(t, 2)
	a, b := serverID(0), serverID(1)
	h.waitView([]types.ServerID{a, b}, []types.ServerID{a, b})

	for round := 0; round < 5; round++ {
		h.net.Partition([]types.ServerID{a}, []types.ServerID{b})
		h.waitView([]types.ServerID{a}, []types.ServerID{a})
		marker := fmt.Sprintf("solo-%d", round)
		_ = h.nodes[a].Multicast([]byte(marker), Safe)
		waitFor(t, 5*time.Second, marker, func() bool {
			return contains(deliveries(h.events(a)), marker)
		})
		h.net.Heal()
		h.waitView([]types.ServerID{a, b}, []types.ServerID{a, b})
	}
}

// TestSafeDeliveryGuarantee is a direct check of the § 4.1 property the
// engine depends on: if any node delivered a Safe message in the regular
// configuration (pre-transitional), every node of that configuration
// delivers it somewhere (regular or transitional) — nobody misses it.
func TestSafeDeliveryGuarantee(t *testing.T) {
	for round := 0; round < 5; round++ {
		func() {
			h := newHarness(t, 4)
			var all []types.ServerID
			for i := 0; i < 4; i++ {
				all = append(all, serverID(i))
			}
			h.waitView(all, all)
			// Fire a burst and partition mid-flight.
			for i := 0; i < 30; i++ {
				_ = h.nodes[all[i%4]].Multicast([]byte(fmt.Sprintf("r%d-m%d", round, i)), Safe)
			}
			h.net.Partition(all[:2], all[2:])
			h.waitView(all[:2], all[:2])
			h.waitView(all[2:], all[2:])
			time.Sleep(50 * time.Millisecond)

			// Collect pre-transitional (regular) deliveries per node and
			// all deliveries per node.
			preTrans := make(map[types.ServerID]map[string]bool)
			everything := make(map[types.ServerID]map[string]bool)
			for _, id := range all {
				preTrans[id] = make(map[string]bool)
				everything[id] = make(map[string]bool)
				sawTrans := false
				for _, ev := range h.events(id) {
					switch e := ev.(type) {
					case ViewChange:
						if e.Config.Transitional {
							sawTrans = true
						}
					case Delivery:
						everything[id][string(e.Payload)] = true
						if !sawTrans {
							preTrans[id][string(e.Payload)] = true
						}
					}
				}
			}
			for _, p := range all {
				for msg := range preTrans[p] {
					for _, q := range all {
						if !everything[q][msg] {
							t.Fatalf("round %d: %s delivered %q safe in the regular conf but %s never delivered it",
								round, p, msg, q)
						}
					}
				}
			}
			h.close()
		}()
	}
}

// blindFD is an endpoint whose failure detector never changes its mind:
// the listed nodes always look reachable, and no change is ever signalled.
type blindFD struct {
	*memnet.Endpoint
	all []types.ServerID
}

func (b blindFD) Reachable() []types.ServerID { return b.all }
func (b blindFD) Changes() <-chan struct{}    { return nil }

// TestRestartUnseenByPeers: a member crashes and restarts so quickly that
// the others' failure detectors never report it gone. They stay in the
// configuration that counts it as a member, while the restarted node,
// with no memory of that configuration, gathers from counter 0 with the
// same member set. All of them must still reach a new configuration
// together.
func TestRestartUnseenByPeers(t *testing.T) {
	h := newHarness(t, 0)
	all := []types.ServerID{serverID(0), serverID(1), serverID(2)}
	h.start(all[0], h.attach(all[0]))
	for _, id := range all[1:] {
		h.start(id, blindFD{Endpoint: h.attach(id), all: all})
	}
	h.waitView(all, all)
	before, _ := lastRegular(h.events(all[1]))

	h.crash(all[0])
	h.add(all[0])
	waitFor(t, 10*time.Second, "a configuration after the restart at every node", func() bool {
		for _, id := range all {
			c, ok := lastRegular(h.events(id))
			if !ok || c.ID.Counter <= before.ID.Counter || !types.EqualMembers(c.Members, all) {
				return false
			}
		}
		return true
	})
}
