package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestTracerRecordsInOrder(t *testing.T) {
	tr := NewTracer(64)
	tr.Record(EvState, 1, 2, 0)
	tr.Record(EvInstall, 3, 1, 5)
	tr.Record(EvWALSync, uint64(SyncInstall), 0, 0)
	evs := tr.Events(10)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Kind != EvState || evs[1].Kind != EvInstall || evs[2].Kind != EvWALSync {
		t.Fatalf("wrong order: %v", evs)
	}
	if evs[0].Seq >= evs[1].Seq || evs[1].Seq >= evs[2].Seq {
		t.Fatalf("sequence not increasing: %v", evs)
	}
	if !strings.Contains(evs[2].String(), "install") {
		t.Fatalf("wal-sync event string = %q", evs[2].String())
	}
}

func TestTracerWraps(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 100; i++ {
		tr.Record(EvAdmissionReject, uint64(i), 0, 0)
	}
	evs := tr.Events(1000)
	if len(evs) != 16 {
		t.Fatalf("got %d events after wrap, want 16", len(evs))
	}
	if evs[len(evs)-1].A != 99 {
		t.Fatalf("newest event A = %d, want 99", evs[len(evs)-1].A)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs: %v", evs)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(EvState, 1, 2, 0) // must not panic
	if evs := tr.Events(5); evs != nil {
		t.Fatalf("nil tracer returned events: %v", evs)
	}
	if tr.Len() != 0 {
		t.Fatal("nil tracer has nonzero length")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(256)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tr.Record(EvState, id, id+1, 0)
				}
			}
		}(uint64(i))
	}
	for i := 0; i < 200; i++ {
		for _, ev := range tr.Events(64) {
			if ev.Kind != EvState {
				t.Errorf("torn read: kind=%v", ev.Kind)
			}
			if ev.B != ev.A+1 {
				t.Errorf("torn read: a=%d b=%d", ev.A, ev.B)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestSyncPointRoundTrip(t *testing.T) {
	for _, name := range []string{"exchange-states", "construct", "nonprim", "install", "catch-up"} {
		if got := SyncPointOf(name).String(); got != name {
			t.Fatalf("SyncPointOf(%q).String() = %q", name, got)
		}
	}
	if SyncPointOf("bogus") != SyncOther {
		t.Fatal("unknown point did not map to SyncOther")
	}
}

func TestEventStrings(t *testing.T) {
	// Every kind must render without falling through to the generic form.
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Kind: EvState, A: 1, B: 2}, "state"},
		{Event{Kind: EvInstall, A: 1, B: 2, C: 3}, "install"},
		{Event{Kind: EvConfRegular, A: 1, B: 3}, "conf-reg"},
		{Event{Kind: EvConfTrans, A: 1, B: 3}, "conf-trans"},
		{Event{Kind: EvExchangeStart, A: 4}, "exch-start"},
		{Event{Kind: EvExchangeEnd, A: 4, B: 1}, "quorum"},
		{Event{Kind: EvAdmissionReject, A: 12}, "admission"},
		{Event{Kind: EvWALSync, A: uint64(SyncConstruct)}, "construct"},
		{Event{Kind: EvDedupHit, A: 2}, "inflight"},
		{Event{Kind: EvViewGather, A: 7}, "evs-gather"},
		{Event{Kind: EvViewFlush, A: 7, B: 3}, "evs-flush"},
		{Event{Kind: EvViewInstall, A: 7, B: 3}, "evs-install"},
		{Event{Kind: EvCatchUp, A: 40}, "catch-up"},
	}
	for _, c := range cases {
		if s := c.ev.String(); !strings.Contains(s, c.want) {
			t.Errorf("%v.String() = %q, want substring %q", c.ev.Kind, s, c.want)
		}
	}
}
