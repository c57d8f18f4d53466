package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// commit is one write as the load generator saw it: submitted at start (its
// due time, so the root span is the measured latency), answered at end.
type commit struct {
	id         int
	start, end int64
}

// split is a commit cut at the two boundaries visible from outside the
// engine: its multicast into the total order and the Safe delivery of that
// multicast back to the home replica. The three stages sum to the root.
type split struct {
	commit
	multicast int64 // the carrying multicast left the engine
	safe      int64 // evs emitted its Safe delivery
	// sync is the forced write that preceded the multicast, zero when the
	// log did not wait.
	sync syncRec
}

func (s split) submitToMulticast() int64 { return s.multicast - s.start }
func (s split) multicastToSafe() int64   { return s.safe - s.multicast }
func (s split) safeToReply() int64       { return s.end - s.safe }

// attribute splits the commits of one home replica, given in issue order.
//
// Own deliveries match own multicasts first in, first out. The carrying
// multicast of a commit is the latest own delivery the engine took before
// the reply was seen, because the engine answers a batch before it takes
// the next event. Both stamps are taken by goroutines that may run a little
// late, so the match can miss by one: too late when the collector ran
// behind, too early when the forwarder did. The second case shows when the
// chosen multicast left before the commit was even due; the next delivery
// is then taken instead, if evs had emitted it by the time of the reply.
// From outside the engine this cannot be made exact. A commit is left out
// (counted in skipped) when no pair fits it, which happens around view
// changes, where the engine multicasts state rather than actions.
func attribute(commits []commit, mc []mcRec, own []dlRec, syncs []syncRec) (out []split, skipped int) {
	pairs := min(len(mc), len(own))
	for k := 0; k < pairs; k++ {
		if mc[k].len != own[k].len {
			pairs = k // the streams fell out of step; trust nothing past here
			break
		}
	}
	for _, c := range commits {
		k := sort.Search(pairs, func(k int) bool { return own[k].taken > c.end }) - 1
		if (k < 0 || mc[k].at < c.start) && k+1 < pairs && own[k+1].at <= c.end {
			k++
		}
		if k < 0 || mc[k].at < c.start || own[k].at < mc[k].at {
			skipped++
			continue
		}
		s := split{commit: c, multicast: mc[k].at, safe: own[k].at}
		j := sort.Search(len(syncs), func(j int) bool { return syncs[j].end > mc[k].at }) - 1
		if j >= 0 && syncs[j].start >= c.start {
			s.sync = syncs[j]
		}
		out = append(out, s)
	}
	return out, skipped
}

// span is one line of the trace file.
type span struct {
	Name    string `json:"name"`
	Replica string `json:"replica"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Request int    `json:"request"`
}

// writeSpans writes the splits of one replica as JSON lines: a root span
// per commit, its three stages, and the forced write under the first.
func writeSpans(w *bufio.Writer, replica string, splits []split) error {
	enc := json.NewEncoder(w)
	for _, s := range splits {
		root := fmt.Sprintf("%s/%d", replica, s.id)
		stage1 := root + "/submit"
		lines := []span{
			{Name: "commit", Replica: replica, Start: s.start, End: s.end, ID: root, Request: s.id},
			{Name: "core.submit_to_multicast", Replica: replica, Start: s.start, End: s.multicast, ID: stage1, Parent: root, Request: s.id},
			{Name: "evs.multicast_to_safe", Replica: replica, Start: s.multicast, End: s.safe, ID: root + "/order", Parent: root, Request: s.id},
			{Name: "core.safe_to_reply", Replica: replica, Start: s.safe, End: s.end, ID: root + "/apply", Parent: root, Request: s.id},
		}
		if s.sync.end > 0 {
			lines = append(lines, span{Name: "storage.sync", Replica: replica, Start: s.sync.start, End: s.sync.end, ID: root + "/sync", Parent: stage1, Request: s.id})
		}
		for _, l := range lines {
			if err := enc.Encode(l); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTrace writes every replica's spans to path.
func writeTrace(path string, byReplica map[string][]split) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	replicas := make([]string, 0, len(byReplica))
	for r := range byReplica {
		replicas = append(replicas, r)
	}
	sort.Strings(replicas)
	for _, r := range replicas {
		if err := writeSpans(w, r, byReplica[r]); err != nil {
			return err
		}
	}
	return w.Flush()
}
