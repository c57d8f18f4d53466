package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// A hand-built home replica: two forced-write rounds, each followed by one
// multicast carrying the commits submitted before it, each delivered back
// Safe a little later. Times in microseconds for readability.
func us(x int64) int64 { return x * 1000 }

func TestAttributeSplitsCommitsAtTheVisibleBoundaries(t *testing.T) {
	syncs := []syncRec{{us(100), us(2100)}, {us(2100), us(4100)}}
	mc := []mcRec{{at: us(2110), len: 300}, {at: us(4110), len: 500}}
	own := []dlRec{
		{at: us(4000), taken: us(4010), len: 300},
		{at: us(6000), taken: us(6010), len: 500},
	}
	commits := []commit{
		{id: 0, start: us(50), end: us(4100)},   // first round
		{id: 1, start: us(90), end: us(4105)},   // first round, same batch
		{id: 2, start: us(1500), end: us(6100)}, // submitted during the first sync: second round
	}
	splits, skipped := attribute(commits, mc, own, syncs)
	if skipped != 0 || len(splits) != 3 {
		t.Fatalf("attributed %d commits, skipped %d; want 3 and 0", len(splits), skipped)
	}
	for i, s := range splits {
		sum := s.submitToMulticast() + s.multicastToSafe() + s.safeToReply()
		if sum != s.end-s.start {
			t.Errorf("commit %d: stages sum to %d, root is %d", i, sum, s.end-s.start)
		}
	}
	if got := splits[0]; got.multicast != us(2110) || got.safe != us(4000) || got.sync != syncs[0] {
		t.Errorf("commit 0 split = %+v, want first multicast, first delivery, first sync", got)
	}
	if got := splits[2]; got.multicast != us(4110) || got.safe != us(6000) || got.sync != syncs[1] {
		t.Errorf("commit 2 split = %+v, want second multicast, second delivery, second sync", got)
	}
	if got, want := splits[2].safeToReply(), us(100); got != want {
		t.Errorf("commit 2 safe-to-reply = %d, want %d", got, want)
	}
}

// The forwarder may stamp `taken` after the collector stamped the reply;
// the multicast chosen then left before the commit was due, which cannot
// be, so the next delivery is the carrier.
func TestAttributeCorrectsALateForwarder(t *testing.T) {
	mc := []mcRec{{at: us(900), len: 10}, {at: us(1500), len: 10}}
	own := []dlRec{
		{at: us(1200), taken: us(1210), len: 10},
		{at: us(2000), taken: us(2300), len: 10}, // engine took it at ~2001; stamp ran late
	}
	commits := []commit{{id: 7, start: us(1000), end: us(2100)}}
	splits, skipped := attribute(commits, mc, own, nil)
	if skipped != 0 || len(splits) != 1 || splits[0].multicast != us(1500) {
		t.Fatalf("splits = %+v (skipped %d), want the second pair", splits, skipped)
	}
	if splits[0].sync != (syncRec{}) {
		t.Errorf("no sync ran, yet split has %+v", splits[0].sync)
	}
}

func TestAttributeSkipsWhatDoesNotFit(t *testing.T) {
	mc := []mcRec{{at: us(100), len: 10}, {at: us(500), len: 20}}
	own := []dlRec{{at: us(300), taken: us(310), len: 10}, {at: us(700), taken: us(710), len: 99}}
	commits := []commit{
		{id: 0, start: us(50), end: us(200)},  // replied before any delivery
		{id: 1, start: us(400), end: us(800)}, // its pair's lengths disagree: streams out of step
	}
	splits, skipped := attribute(commits, mc, own, nil)
	if len(splits) != 0 || skipped != 2 {
		t.Fatalf("attributed %d, skipped %d; want 0 and 2", len(splits), skipped)
	}
}

func TestWriteSpansLinksChildrenToTheRoot(t *testing.T) {
	s := split{commit: commit{id: 3, start: 10, end: 100}, multicast: 40, safe: 90, sync: syncRec{15, 38}}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeSpans(w, "s01", []split{s}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("%d spans, want root, three stages and the sync", len(lines))
	}
	var root span
	var children int64
	for i, line := range lines {
		var sp span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatal(err)
		}
		if sp.Request != 3 || sp.Replica != "s01" {
			t.Errorf("span %d: request %d replica %q", i, sp.Request, sp.Replica)
		}
		switch {
		case i == 0:
			root = sp
		case sp.Parent == root.ID:
			children += sp.End - sp.Start
		case sp.Name != "storage.sync" || sp.Parent != root.ID+"/submit":
			t.Errorf("span %q has parent %q", sp.Name, sp.Parent)
		}
	}
	if children != root.End-root.Start {
		t.Errorf("the root's children cover %d ns of its %d", children, root.End-root.Start)
	}
}
