package evs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"evsdb/internal/queue"
	"evsdb/internal/transport"
	"evsdb/internal/transport/memnet"
	"evsdb/internal/types"
)

// harness runs a set of EVS nodes over a memnet and records every event
// each node delivers.
type harness struct {
	t     *testing.T
	net   *memnet.Network
	nodes map[types.ServerID]*Node

	mu   sync.Mutex
	logs map[types.ServerID][]Event
	wg   sync.WaitGroup
}

func newHarness(t *testing.T, n int, opts ...memnet.Option) *harness {
	t.Helper()
	h := &harness{
		t:     t,
		net:   memnet.New(opts...),
		nodes: make(map[types.ServerID]*Node),
		logs:  make(map[types.ServerID][]Event),
	}
	for i := 0; i < n; i++ {
		h.add(serverID(i))
	}
	t.Cleanup(h.close)
	return h
}

func serverID(i int) types.ServerID {
	return types.ServerID(fmt.Sprintf("s%02d", i))
}

func (h *harness) add(id types.ServerID) *Node {
	h.t.Helper()
	return h.start(id, h.attach(id))
}

func (h *harness) attach(id types.ServerID) *memnet.Endpoint {
	h.t.Helper()
	ep, err := h.net.Attach(id)
	if err != nil {
		h.t.Fatalf("attach %s: %v", id, err)
	}
	return ep
}

// start runs a node on the given endpoint and records its events.
func (h *harness) start(id types.ServerID, tr transport.Node) *Node {
	node := NewNode(tr, WithTick(200*time.Microsecond))
	h.nodes[id] = node
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for ev := range node.Events() {
			h.mu.Lock()
			h.logs[id] = append(h.logs[id], ev)
			h.mu.Unlock()
		}
	}()
	return node
}

func (h *harness) close() {
	for _, n := range h.nodes {
		n.Close()
	}
	h.wg.Wait()
}

func (h *harness) crash(id types.ServerID) {
	h.net.Crash(id)
	h.nodes[id].Close()
	delete(h.nodes, id)
}

// events returns a snapshot of one node's event log.
func (h *harness) events(id types.ServerID) []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Event(nil), h.logs[id]...)
}

// deliveries extracts payload strings from a node's log.
func deliveries(evs []Event) []string {
	var out []string
	for _, ev := range evs {
		if d, ok := ev.(Delivery); ok {
			out = append(out, string(d.Payload))
		}
	}
	return out
}

// lastRegular returns the most recent regular configuration in a log.
func lastRegular(evs []Event) (types.Configuration, bool) {
	for i := len(evs) - 1; i >= 0; i-- {
		if vc, ok := evs[i].(ViewChange); ok && !vc.Config.Transitional {
			return vc.Config, true
		}
	}
	return types.Configuration{}, false
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitView waits until every listed node's latest regular configuration
// has exactly the given membership.
func (h *harness) waitView(ids []types.ServerID, want []types.ServerID) {
	h.t.Helper()
	sorted := append([]types.ServerID(nil), want...)
	types.SortServerIDs(sorted)
	waitFor(h.t, 10*time.Second, fmt.Sprintf("view %v at %v", want, ids), func() bool {
		for _, id := range ids {
			conf, ok := lastRegular(h.events(id))
			if !ok || !types.EqualMembers(conf.Members, sorted) {
				return false
			}
		}
		return true
	})
}

func TestSingleNodeInstallsAndDelivers(t *testing.T) {
	h := newHarness(t, 1)
	id := serverID(0)
	h.waitView([]types.ServerID{id}, []types.ServerID{id})

	if err := h.nodes[id].Multicast([]byte("hello"), Safe); err != nil {
		t.Fatalf("multicast: %v", err)
	}
	waitFor(t, 5*time.Second, "self delivery", func() bool {
		ds := deliveries(h.events(id))
		return len(ds) == 1 && ds[0] == "hello"
	})
}

func TestThreeNodesAgreeOnView(t *testing.T) {
	h := newHarness(t, 3)
	all := []types.ServerID{serverID(0), serverID(1), serverID(2)}
	h.waitView(all, all)

	// All three must install the *same* configuration id.
	var ids []types.ConfID
	for _, id := range all {
		conf, _ := lastRegular(h.events(id))
		ids = append(ids, conf.ID)
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("configuration ids differ: %v", ids)
	}
}

func TestTotalOrderAcrossConcurrentSenders(t *testing.T) {
	h := newHarness(t, 3)
	all := []types.ServerID{serverID(0), serverID(1), serverID(2)}
	h.waitView(all, all)

	const perSender = 50
	for _, id := range all {
		go func(id types.ServerID) {
			for i := 0; i < perSender; i++ {
				_ = h.nodes[id].Multicast([]byte(fmt.Sprintf("%s/%d", id, i)), Safe)
			}
		}(id)
	}

	total := perSender * len(all)
	waitFor(t, 10*time.Second, "all deliveries", func() bool {
		for _, id := range all {
			if len(deliveries(h.events(id))) < total {
				return false
			}
		}
		return true
	})

	ref := deliveries(h.events(all[0]))
	for _, id := range all[1:] {
		got := deliveries(h.events(id))
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("delivery order differs at %d: %s got %q, %s got %q",
					i, all[0], ref[i], id, got[i])
			}
		}
	}
}

func TestSenderFIFO(t *testing.T) {
	h := newHarness(t, 3)
	all := []types.ServerID{serverID(0), serverID(1), serverID(2)}
	h.waitView(all, all)

	const msgs = 100
	for i := 0; i < msgs; i++ {
		_ = h.nodes[all[0]].Multicast([]byte(fmt.Sprintf("%d", i)), Agreed)
	}
	waitFor(t, 10*time.Second, "fifo deliveries", func() bool {
		return len(deliveries(h.events(all[2]))) >= msgs
	})
	got := deliveries(h.events(all[2]))
	for i := 0; i < msgs; i++ {
		if got[i] != fmt.Sprintf("%d", i) {
			t.Fatalf("FIFO violated at %d: got %q", i, got[i])
		}
	}
}

func TestPartitionDeliversTransThenRegular(t *testing.T) {
	h := newHarness(t, 5)
	var all []types.ServerID
	for i := 0; i < 5; i++ {
		all = append(all, serverID(i))
	}
	h.waitView(all, all)

	left := all[:3]
	right := all[3:]
	h.net.Partition(left, right)

	h.waitView(left, left)
	h.waitView(right, right)

	// Each side must have seen a transitional configuration for the old
	// view before the new regular one, with membership limited to its
	// side.
	for _, id := range all {
		evs := h.events(id)
		var sawTrans bool
		for _, ev := range evs {
			vc, ok := ev.(ViewChange)
			if !ok || !vc.Config.Transitional {
				continue
			}
			sawTrans = true
			if len(vc.Config.Members) > 3 {
				t.Fatalf("%s: transitional config has %d members", id, len(vc.Config.Members))
			}
		}
		if !sawTrans {
			t.Fatalf("%s: no transitional configuration delivered", id)
		}
	}

	// Post-partition traffic stays within the component.
	_ = h.nodes[left[0]].Multicast([]byte("left-only"), Safe)
	_ = h.nodes[right[0]].Multicast([]byte("right-only"), Safe)

	waitFor(t, 5*time.Second, "left delivery", func() bool {
		for _, id := range left {
			if !contains(deliveries(h.events(id)), "left-only") {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "right delivery", func() bool {
		for _, id := range right {
			if !contains(deliveries(h.events(id)), "right-only") {
				return false
			}
		}
		return true
	})
	for _, id := range right {
		if contains(deliveries(h.events(id)), "left-only") {
			t.Fatalf("%s received message from the other component", id)
		}
	}
}

func TestMergeReinstallsFullView(t *testing.T) {
	h := newHarness(t, 4)
	var all []types.ServerID
	for i := 0; i < 4; i++ {
		all = append(all, serverID(i))
	}
	h.waitView(all, all)

	h.net.Partition(all[:2], all[2:])
	h.waitView(all[:2], all[:2])
	h.waitView(all[2:], all[2:])

	_ = h.nodes[all[0]].Multicast([]byte("during-partition"), Safe)
	waitFor(t, 5*time.Second, "partition delivery", func() bool {
		return contains(deliveries(h.events(all[1])), "during-partition")
	})

	h.net.Heal()
	h.waitView(all, all)

	_ = h.nodes[all[3]].Multicast([]byte("after-merge"), Safe)
	waitFor(t, 5*time.Second, "post-merge delivery everywhere", func() bool {
		for _, id := range all {
			if !contains(deliveries(h.events(id)), "after-merge") {
				return false
			}
		}
		return true
	})
}

func TestCrashReconfigures(t *testing.T) {
	h := newHarness(t, 3)
	all := []types.ServerID{serverID(0), serverID(1), serverID(2)}
	h.waitView(all, all)

	h.crash(all[2])
	h.waitView(all[:2], all[:2])

	_ = h.nodes[all[0]].Multicast([]byte("post-crash"), Safe)
	waitFor(t, 5*time.Second, "post-crash delivery", func() bool {
		return contains(deliveries(h.events(all[1])), "post-crash")
	})
}

func TestLossRecovery(t *testing.T) {
	h := newHarness(t, 3, memnet.WithLoss(0.10), memnet.WithSeed(42))
	all := []types.ServerID{serverID(0), serverID(1), serverID(2)}
	h.waitView(all, all)

	const msgs = 60
	for i := 0; i < msgs; i++ {
		_ = h.nodes[all[i%3]].Multicast([]byte(fmt.Sprintf("m%d", i)), Safe)
	}
	waitFor(t, 20*time.Second, "lossy deliveries", func() bool {
		for _, id := range all {
			if len(deliveries(h.events(id))) < msgs {
				return false
			}
		}
		return true
	})
	// Total order must hold despite the loss.
	ref := deliveries(h.events(all[0]))[:msgs]
	for _, id := range all[1:] {
		got := deliveries(h.events(id))[:msgs]
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("order differs at %d under loss: %q vs %q", i, ref[i], got[i])
			}
		}
	}
}

// TestVirtualSynchrony checks the core EVS guarantee: nodes that install
// the same next configuration delivered the same set of messages in the
// previous one (counting both regular and transitional deliveries).
func TestVirtualSynchrony(t *testing.T) {
	h := newHarness(t, 5)
	var all []types.ServerID
	for i := 0; i < 5; i++ {
		all = append(all, serverID(i))
	}
	h.waitView(all, all)

	// Pump traffic while partitioning to catch in-flight messages.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, id := range all {
		wg.Add(1)
		go func(id types.ServerID) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = h.nodes[id].Multicast([]byte(fmt.Sprintf("%s#%d", id, i)), Safe)
				time.Sleep(200 * time.Microsecond)
			}
		}(id)
	}
	time.Sleep(20 * time.Millisecond)
	h.net.Partition(all[:3], all[3:])
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	h.waitView(all[:3], all[:3])
	h.waitView(all[3:], all[3:])

	// Wait for each side to drain pending deliveries.
	time.Sleep(100 * time.Millisecond)

	checkGroup := func(ids []types.ServerID) {
		t.Helper()
		// Compare the full prefix of deliveries up to (and including)
		// everything delivered before the new regular configuration.
		var ref []string
		for i, id := range ids {
			evs := h.events(id)
			var seq []string
			for _, ev := range evs {
				switch e := ev.(type) {
				case Delivery:
					seq = append(seq, string(e.Payload))
				case ViewChange:
					if !e.Config.Transitional && types.EqualMembers(e.Config.Members, ids) {
						// Stop at the post-partition regular config.
						goto compare
					}
				}
			}
		compare:
			if i == 0 {
				ref = seq
				continue
			}
			if len(seq) != len(ref) {
				t.Fatalf("virtual synchrony violated: %s delivered %d, %s delivered %d",
					ids[0], len(ref), id, len(seq))
			}
			for j := range ref {
				if seq[j] != ref[j] {
					t.Fatalf("virtual synchrony violated at %d: %q vs %q", j, ref[j], seq[j])
				}
			}
		}
	}
	checkGroup(all[:3])
	checkGroup(all[3:])
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestEventsAfterCloseArePrefix: a reader that keeps reading after Close
// receives a prefix of the event stream. Dropping events one at a time
// once closed (a random choice between the send and the stop case) let
// the engine see a delivery inside a transitional configuration without
// the transitional configuration, and mark it green.
func TestEventsAfterCloseArePrefix(t *testing.T) {
	for round := 0; round < 20; round++ {
		n := &Node{
			events:   queue.NewUnbounded[Event](),
			eventsCh: make(chan Event),
			stop:     make(chan struct{}),
			pumpDone: make(chan struct{}),
		}
		go n.pumpEvents()
		n.emit(Delivery{Payload: []byte{0}})
		if ev := <-n.eventsCh; ev.(Delivery).Payload[0] != 0 {
			t.Fatalf("first event %v", ev)
		}
		close(n.stop)
		for i := 1; i < 50; i++ {
			n.emit(Delivery{Payload: []byte{byte(i)}})
		}
		n.events.Close()
		next := 1
		for ev := range n.eventsCh {
			if got := int(ev.(Delivery).Payload[0]); got != next {
				t.Fatalf("round %d: event %d delivered after Close where %d was due", round, got, next)
			}
			next++
		}
	}
}
