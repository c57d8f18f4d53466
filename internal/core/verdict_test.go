package core

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"evsdb/internal/db"
	"evsdb/internal/evs"
	"evsdb/internal/obs"
	"evsdb/internal/quorum"
	"evsdb/internal/storage"
	"evsdb/internal/types"
)

// ids turns names into server ids.
func ids(names ...string) []types.ServerID {
	out := make([]types.ServerID, len(names))
	for i, n := range names {
		out[i] = types.ServerID(n)
	}
	return out
}

func TestRetransPlanAssignsHolders(t *testing.T) {
	v := decide(ids("a", "b", "c"), map[types.ServerID]stateMsg{
		"a": {Server: "a", GreenCount: 10, BaseGreen: 0,
			RedCut: map[types.ServerID]uint64{"a": 4, "b": 2}},
		"b": {Server: "b", GreenCount: 7, BaseGreen: 0,
			RedCut: map[types.ServerID]uint64{"a": 4, "b": 5}},
		"c": {Server: "c", GreenCount: 10, BaseGreen: 6,
			RedCut: map[types.ServerID]uint64{"a": 1}},
	}, quorum.DynamicLinear{})
	if v.greenTarget != 10 || v.blocked {
		t.Fatalf("green target %d blocked=%v", v.greenTarget, v.blocked)
	}
	// Positions 8..10: only "a" can serve below c's base+1? a has
	// GreenCount 10 and base 0, c has base 6 so c serves 7..10 too; the
	// max-green then lowest-id rule picks "a" for every position.
	for _, ch := range v.greenChunks {
		if ch.holder != "a" {
			t.Fatalf("green chunk %+v not held by a", ch)
		}
	}
	// Red ranges: creator a needs 2..4 (holder a, ties to lowest id);
	// creator b needs 3..5 (holder b).
	foundA, foundB := false, false
	for _, rr := range v.redRanges {
		switch rr.creator {
		case "a":
			foundA = true
			if rr.from != 2 || rr.to != 4 || rr.holder != "a" {
				t.Fatalf("red range for a: %+v", rr)
			}
		case "b":
			foundB = true
			if rr.from != 1 || rr.to != 5 || rr.holder != "b" {
				t.Fatalf("red range for b: %+v", rr)
			}
		}
	}
	if !foundA || !foundB {
		t.Fatalf("missing red ranges: %+v", v.redRanges)
	}
}

func TestRetransPlanBlockedByWhiteHole(t *testing.T) {
	// b needs greens 3..10 but every holder white-collected through 6:
	// positions 3..6 are unservable and the plan must refuse to equalize.
	v := decide(ids("a", "b"), map[types.ServerID]stateMsg{
		"a": {Server: "a", GreenCount: 10, BaseGreen: 6, RedCut: map[types.ServerID]uint64{}},
		"b": {Server: "b", GreenCount: 2, BaseGreen: 0, RedCut: map[types.ServerID]uint64{}},
	}, quorum.DynamicLinear{})
	if !v.blocked {
		t.Fatalf("plan should be blocked: %+v", v)
	}
	if v.greenTarget != 2 {
		t.Fatalf("green target %d, want 2", v.greenTarget)
	}
}

func TestComputeKnowledgeAdoptsNewestPrimary(t *testing.T) {
	newer := PrimComponent{PrimIndex: 5, AttemptIndex: 2, Servers: ids("b", "c")}
	v := decide(ids("a", "b", "c"), map[types.ServerID]stateMsg{
		"a": {Server: "a", Prim: PrimComponent{PrimIndex: 3, Servers: ids("a", "b", "c")}},
		"b": {Server: "b", Prim: newer, AttemptIndex: 4,
			Yellow: Yellow{Status: true, Set: []types.ActionID{{Server: "x", Index: 1}, {Server: "x", Index: 2}}}},
		"c": {Server: "c", Prim: newer,
			Yellow: Yellow{Status: true, Set: []types.ActionID{{Server: "x", Index: 2}}}},
	}, quorum.DynamicLinear{})
	if !v.prim.Equal(newer) {
		t.Fatalf("prim %+v", v.prim)
	}
	if v.attempt != 4 {
		t.Fatalf("attemptIndex %d", v.attempt)
	}
	// Yellow: the intersection of the valid group's sets.
	if !v.yellow.Status || len(v.yellow.Set) != 1 || v.yellow.Set[0] != (types.ActionID{Server: "x", Index: 2}) {
		t.Fatalf("yellow %+v", v.yellow)
	}
}

// verdictCase is a recorded state-message set.
type verdictCase struct {
	members []types.ServerID
	msgs    map[types.ServerID]stateMsg
	check   func(t *testing.T, v verdict) // what the verdict must say, if anything
}

// verdictCases are the named inputs of TestVerdictSameAtEveryMember.
func verdictCases() map[string]verdictCase {
	prim := PrimComponent{PrimIndex: 5, AttemptIndex: 1, Servers: ids("a", "b", "c")}
	vuln := func(set ...string) Vulnerable {
		return Vulnerable{Status: true, PrimIndex: 5, AttemptIndex: 2, Set: ids(set...),
			Bits: map[types.ServerID]bool{}}
	}
	newer := PrimComponent{PrimIndex: 5, AttemptIndex: 2, Servers: ids("b", "c")}
	return map[string]verdictCase{
		// a is vulnerable to an attempt whose set is {a, b}, b to the
		// same attempt with set {b, c}, and c reports no vulnerability.
		// c's report makes b's record moot (rule 3); a's and b's reports
		// together account for a's set (rule 4). A single pass over a map
		// that let rule 3's clearings feed each other cleared a only when
		// it happened to visit b first, so members fed the same state
		// messages could disagree.
		"ab-bc-clear": {ids("a", "b", "c"), map[types.ServerID]stateMsg{
			"a": {Prim: prim, AttemptIndex: 2, Vuln: vuln("a", "b")},
			"b": {Prim: prim, AttemptIndex: 2, Vuln: vuln("b", "c")},
			"c": {Prim: prim, AttemptIndex: 2},
		}, func(t *testing.T, v verdict) {
			if v.vuln["a"].Status || v.vuln["b"].Status || v.vuln["c"].Status || !v.quorum {
				t.Fatalf("vuln %+v quorum %v, want every record cleared and a quorum", v.vuln, v.quorum)
			}
		}},
		// Four servers: a, b and d installed P1 = {a, b, d}; all four then
		// tried P2, a installed it, and b, c and d are Un. Now b, c and d
		// meet without a. c is outside P1, so its record is moot, but
		// that proves nothing about the attempt: b's and d's records must
		// still block, or b, c and d install a second primary at index 2.
		"installed-elsewhere": {ids("b", "c", "d"), func() map[types.ServerID]stateMsg {
			p1 := PrimComponent{PrimIndex: 1, AttemptIndex: 1, Servers: ids("a", "b", "d")}
			msgs := map[types.ServerID]stateMsg{}
			for _, m := range ids("b", "c", "d") {
				msgs[m] = stateMsg{Prim: p1, AttemptIndex: 1, Yellow: Yellow{Status: true},
					Vuln: Vulnerable{Status: true, PrimIndex: 1, AttemptIndex: 1, Set: ids("a", "b", "c", "d"),
						Bits: map[types.ServerID]bool{m: true}}}
			}
			return msgs
		}(), func(t *testing.T, v verdict) {
			if !v.vuln["b"].Status || !v.vuln["d"].Status || v.quorum {
				t.Fatalf("vuln %+v quorum %v, want b and d vulnerable and no quorum", v.vuln, v.quorum)
			}
		}},
		"newest-primary": {ids("a", "b", "c"), map[types.ServerID]stateMsg{
			"a": {Prim: PrimComponent{PrimIndex: 3, Servers: ids("a", "b", "c")}},
			"b": {Prim: newer, AttemptIndex: 4,
				Yellow: Yellow{Status: true, Set: []types.ActionID{{Server: "x", Index: 1}, {Server: "x", Index: 2}}}},
			"c": {Prim: newer, Yellow: Yellow{Status: true, Set: []types.ActionID{{Server: "x", Index: 2}}}},
		}, nil},
		"holders": {ids("a", "b", "c"), map[types.ServerID]stateMsg{
			"a": {GreenCount: 10, RedCut: map[types.ServerID]uint64{"a": 4, "b": 2}, Prim: prim},
			"b": {GreenCount: 7, RedCut: map[types.ServerID]uint64{"a": 4, "b": 5}, Prim: prim,
				GreenSeqKnown: map[types.ServerID]uint64{"c": 9}},
			"c": {GreenCount: 10, BaseGreen: 6, RedCut: map[types.ServerID]uint64{"a": 1}, Prim: prim},
		}, nil},
		"white-hole": {ids("a", "b"), map[types.ServerID]stateMsg{
			"a": {GreenCount: 10, BaseGreen: 6},
			"b": {GreenCount: 2},
		}, func(t *testing.T, v verdict) {
			if !v.blocked || v.quorum || v.snapSender != "a" {
				t.Fatalf("blocked %v quorum %v sender %q, want blocked, no quorum, sender a", v.blocked, v.quorum, v.snapSender)
			}
		}},
		"vulnerable-peer": {ids("a", "b", "c"), map[types.ServerID]stateMsg{
			"a": {Prim: prim},
			"b": {Prim: prim, Vuln: Vulnerable{Status: true, PrimIndex: 5, AttemptIndex: 9,
				Set: ids("b", "d"), Bits: map[types.ServerID]bool{"b": true}}},
			"c": {Prim: prim},
		}, func(t *testing.T, v verdict) {
			if v.quorum {
				t.Fatal("a vulnerable peer whose attempt set is not accounted for must block the quorum")
			}
		}},
	}
}

// shuffled returns a copy of members in a random order.
func shuffled(rng *rand.Rand, members []types.ServerID) []types.ServerID {
	out := slices.Clone(members)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestVerdictSameAtEveryMember feeds each recorded state-message set to
// engines that have different local histories — their own primary,
// vulnerable and yellow records, green lines and red actions — in
// shuffled member and delivery orders. Every engine must store the
// verdict decide computes from the set alone.
func TestVerdictSameAtEveryMember(t *testing.T) {
	for name, c := range verdictCases() {
		t.Run(name, func(t *testing.T) {
			confID := types.ConfID{Counter: 9, Proposer: "a"}
			for m, s := range c.msgs {
				s.Server, s.Conf = m, confID
				c.msgs[m] = s
			}
			want := decide(c.members, c.msgs, quorum.DynamicLinear{})
			if c.check != nil {
				c.check(t, want)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			ended := 0
			for i := 0; i < 24; i++ {
				me := c.members[i%len(c.members)]
				e, _, _ := testEngine(t, string(me), "a", "b", "c", "d")
				// A local history of its own.
				e.prim = PrimComponent{PrimIndex: rng.Uint64() % 9, Servers: shuffled(rng, c.members)[:1]}
				e.attemptIndex = rng.Uint64() % 5
				e.vuln = Vulnerable{Status: rng.Intn(2) == 0, AttemptIndex: rng.Uint64() % 5, Set: c.members}
				e.yellow = Yellow{Status: rng.Intn(2) == 0, Set: []types.ActionID{{Server: "x", Index: 2}}}
				e.greenKnown["d"] = rng.Uint64() % 20
				for j := uint64(1); j <= rng.Uint64()%4; j++ {
					deliver(e, types.Action{ID: types.ActionID{Server: "d", Index: j}, Type: types.ActionUpdate,
						Update: db.EncodeUpdate(db.Set("k", "v"))})
				}
				e.conf = types.Configuration{ID: confID, Members: shuffled(rng, c.members)}
				e.shiftToExchangeStates()
				for _, m := range shuffled(rng, c.members) {
					e.onStateMsg(c.msgs[m])
				}
				if !reflect.DeepEqual(e.verdict, want) {
					t.Fatalf("engine %d (%s) decided\n  %+v\nwant\n  %+v", i, me, e.verdict, want)
				}
				// An engine that ended the exchange traced the input hash.
				for _, ev := range e.obs.Trace.Events(256) {
					if ev.Kind == obs.EvExchangeEnd {
						ended++
						if ev.C != want.input {
							t.Fatalf("exch-end input %x, want %x", ev.C, want.input)
						}
					}
				}
			}
			if nothingToSend := !want.blocked && len(want.greenChunks)+len(want.redRanges) == 0; nothingToSend && ended == 0 {
				t.Fatal("no engine traced the end of the exchange")
			}
		})
	}
}

// world drives n engines through configuration changes by calling their
// handlers: each component delivers its members' multicasts to all of its
// members in one order, as Safe delivery does. Only a component whose
// members reached Construct is left to its fates.
type world struct {
	t   *testing.T
	rng *rand.Rand
	ids []types.ServerID
	eng map[types.ServerID]*Engine
	gc  map[types.ServerID]*fakeGC
	log map[types.ServerID]*storage.MemLog
	ctr uint64 // configuration counter
	// installed is the primary component installed at each index.
	installed map[uint64]PrimComponent
}

// step is one configuration change. comp[i] labels the component of
// server i. fates[i] says how server i leaves the component if the
// component reaches Construct:
//
//	'I' every CPC arrives in the regular configuration: install
//	'C' install, then crash and recover from the log
//	'U' a transitional configuration, then every CPC: Un
//	'N' a transitional configuration with CPCs missing: No
//
// Safe delivery lets no member miss a CPC another member installed on
// unless it crashed, so once a member installs, 'N' is taken as 'U'. act
// turns one action green in a component where every member installed.
type step struct {
	comp  []int
	fates string
	act   bool
}

func newWorld(t *testing.T, n int, seed int64) *world {
	w := &world{t: t, rng: rand.New(rand.NewSource(seed)), ids: ids("a", "b", "c", "d", "e")[:n],
		eng: map[types.ServerID]*Engine{}, gc: map[types.ServerID]*fakeGC{}, log: map[types.ServerID]*storage.MemLog{},
		installed: map[uint64]PrimComponent{}}
	for _, id := range w.ids {
		w.log[id] = storage.NewMemLog(storage.Options{Policy: storage.SyncNone})
		w.start(id)
	}
	return w
}

// start runs server id's engine on its log, recovering what the log
// holds. The engine traces nothing and logs nothing.
func (w *world) start(id types.ServerID) {
	w.gc[id] = newFakeGC()
	quiet := &obs.Observer{Reg: obs.NewRegistry(),
		Log: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))}
	e, err := newEngine(Config{ID: id, Servers: w.ids, GC: w.gc[id], Log: w.log[id], Obs: quiet})
	if err == nil {
		err = e.recover()
	}
	if err != nil {
		w.t.Fatal(err)
	}
	w.eng[id] = e
}

// run takes the world through one step and checks every component's
// verdict. It returns the indexes of the servers of the component that
// reached a quorum, if one did.
func (w *world) run(s step) (q []int) {
	w.ctr++
	for label := range w.ids {
		var comp []types.ServerID
		var idx []int
		for i, id := range w.ids {
			if s.comp[i]%len(w.ids) == label {
				comp, idx = append(comp, id), append(idx, i)
			}
		}
		if len(comp) == 0 {
			continue
		}
		c := types.Configuration{ID: types.ConfID{Counter: w.ctr, Proposer: comp[0]}, Members: comp}
		for _, m := range comp {
			w.gc[m].take() // an old configuration's traffic is not delivered in this one
			w.eng[m].handleEvent(evs.ViewChange{Config: c})
		}
		cpcs := w.pump(c)
		if !w.decided(comp) {
			continue
		}
		if q != nil {
			w.t.Fatalf("two components of one split reached a quorum: %s", w.key())
		}
		q = idx
		w.leave(c, cpcs, s)
	}
	// The configuration ends everywhere.
	for _, id := range w.ids {
		e := w.eng[id]
		e.handleEvent(evs.ViewChange{Config: types.Configuration{ID: e.conf.ID, Members: []types.ServerID{id}, Transitional: true}})
	}
	return q
}

// pump delivers the component's multicasts until none is left, and
// returns the CPC messages, which it holds back.
func (w *world) pump(c types.Configuration) (cpcs [][]byte) {
	for busy := true; busy; {
		busy = false
		for _, m := range c.Members {
			for _, msg := range w.gc[m].take() {
				busy = true
				p := encodeEngineMsg(msg)
				if msg.Kind == emCPC {
					cpcs = append(cpcs, p)
					continue
				}
				for _, r := range c.Members {
					w.eng[r].handleEvent(evs.Delivery{Conf: c.ID, Sender: m, Payload: p})
				}
			}
		}
	}
	return cpcs
}

// decided checks the component's verdicts and reports whether it reached
// a quorum. Every member must have ended the exchange with the verdict
// decide computes from the state messages alone, in any member and map
// order, and a quorum verdict must reach every green count reported.
func (w *world) decided(comp []types.ServerID) bool {
	msgs := w.eng[comp[0]].stateMsgs
	shuffledMsgs := make(map[types.ServerID]stateMsg, len(msgs))
	for _, m := range shuffled(w.rng, comp) {
		shuffledMsgs[m] = msgs[m]
	}
	want := decide(shuffled(w.rng, comp), shuffledMsgs, quorum.DynamicLinear{})
	for _, m := range comp {
		e := w.eng[m]
		if e.st != Construct && e.st != NonPrim {
			w.t.Fatalf("%s still in %v after every multicast: %s", m, e.st, w.key())
		}
		if !reflect.DeepEqual(e.verdict, want) {
			w.t.Fatalf("%s decided %+v, want %+v: %s", m, e.verdict, want, w.key())
		}
		if want.quorum && want.greenTarget < msgs[m].GreenCount {
			w.t.Fatalf("quorum verdict targets %d greens, %s reported %d: %s", want.greenTarget, m, msgs[m].GreenCount, w.key())
		}
	}
	return want.quorum
}

// leave applies the fates to a component whose members reached Construct.
func (w *world) leave(c types.Configuration, cpcs [][]byte, s step) {
	installs := false
	for i, id := range w.ids {
		installs = installs || slices.Contains(c.Members, id) && strings.IndexByte("IC", s.fates[i]) >= 0
	}
	all := true
	for i, id := range w.ids {
		if !slices.Contains(c.Members, id) {
			continue
		}
		e, f := w.eng[id], s.fates[i]
		all = all && f == 'I'
		if f == 'U' || f == 'N' {
			e.handleEvent(evs.ViewChange{Config: types.Configuration{ID: c.ID, Members: []types.ServerID{id}, Transitional: true}})
		}
		if f != 'N' || installs {
			for _, p := range cpcs {
				e.handleEvent(evs.Delivery{Conf: c.ID, Payload: p})
			}
		}
		if e.st == RegPrim {
			if p, ok := w.installed[e.prim.PrimIndex]; ok && !p.Equal(e.prim) {
				w.t.Fatalf("primaries %+v and %+v both installed: %s", p, e.prim, w.key())
			}
			w.installed[e.prim.PrimIndex] = e.prim
		}
	}
	if s.act && all {
		creator := c.Members[0]
		a := types.Action{ID: types.ActionID{Server: creator, Index: w.eng[creator].redCut[creator] + 1},
			Type: types.ActionUpdate, Update: db.EncodeUpdate(db.Set("k", string(creator)))}
		for _, m := range c.Members {
			deliver(w.eng[m], a)
		}
	}
	for i, id := range w.ids {
		if s.fates[i] == 'C' && slices.Contains(c.Members, id) {
			w.log[id].Crash()
			w.start(id)
		}
	}
}

// key summarizes what the next steps depend on: each server's state
// message as its next regular configuration will build it. Servers are
// interchangeable but for the lowest-id tie-breaks that pick who
// retransmits, so the key is the least over every renaming of the
// servers, and worlds that differ only by a renaming share it.
func (w *world) key() string {
	best := ""
	for _, perm := range permutations(len(w.ids)) {
		to := func(id types.ServerID) types.ServerID {
			if i := slices.Index(w.ids, id); i >= 0 {
				return w.ids[perm[i]]
			}
			return id
		}
		set := func(in []types.ServerID) []types.ServerID {
			out := make([]types.ServerID, len(in))
			for i, id := range in {
				out[i] = to(id)
			}
			types.SortServerIDs(out)
			return out
		}
		rows := make([]string, len(w.ids))
		for i, id := range w.ids {
			e := w.eng[id]
			prim, vuln, yellow := e.prim, e.vuln, e.yellow.Status
			switch e.st {
			case TransPrim:
				vuln.Status, yellow = false, true
			case No:
				vuln.Status = false
			}
			if !vuln.Status {
				vuln = Vulnerable{}
			}
			prim.Servers, vuln.Set = set(prim.Servers), set(vuln.Set)
			bits, known := map[types.ServerID]bool{}, map[types.ServerID]uint64{}
			for b, on := range vuln.Bits {
				bits[to(b)] = on
			}
			for k, n := range e.greenKnown {
				known[to(k)] = n
			}
			vuln.Bits = bits
			rows[perm[i]] = fmt.Sprintf("%+v %+v %v %d %d %d %v", prim, vuln, yellow,
				e.attemptIndex, e.queue.greenCount(), e.queue.base, known)
		}
		if k := strings.Join(rows, ";"); best == "" || k < best {
			best = k
		}
	}
	return best
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			out = append(out, slices.Insert(slices.Clone(p), i, n-1))
		}
	}
	return out
}

// splits3 are the five ways to split three servers into components.
var splits3 = [][]int{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {0, 1, 1}, {0, 1, 2}}

// TestVerdictExhaustive3 runs three engines through every history of two
// configuration changes: every split into components, every combination
// of fates for the component that reaches a quorum, and an action turned
// green where all of its members install. That bounds primary and
// attempt indices and green counts by 2. In every state reached, every
// split is checked: equal inputs give equal verdicts, at most one
// component reaches a quorum, a quorum verdict never sets greenTarget
// below a green count a member reported, and no two installs of one
// primary index differ. The state-message sets checked are the ones
// these histories reach, so no set is excluded by an invariant.
func TestVerdictExhaustive3(t *testing.T) {
	seen := map[string]bool{}
	level := [][]step{nil}
	replay := func(path []step) *world {
		w := newWorld(t, 3, int64(len(seen)))
		for _, s := range path {
			w.run(s)
		}
		return w
	}
	checked := 0
	for depth := 0; depth <= 2; depth++ {
		var next [][]step
		for _, path := range level {
			for _, comp := range splits3 {
				q := replay(path).run(step{comp: comp, fates: "NNN"})
				checked++
				if depth == 2 {
					continue
				}
				for _, s := range fateSteps(comp, q) {
					w := replay(path)
					w.run(s)
					if key := w.key(); !seen[key] {
						seen[key] = true
						next = append(next, append(slices.Clip(path), s))
					}
				}
			}
		}
		level = next
	}
	t.Logf("%d states reached, %d splits checked", len(seen), checked)
}

// fateSteps returns the steps that split the servers as comp and give
// the servers of the quorum component, q, each combination of fates that
// Safe delivery allows, and with an action turned green when all of them
// install. With no quorum component there is one step.
func fateSteps(comp []int, q []int) []step {
	if len(q) == 0 {
		return []step{{comp: comp, fates: "NNN"}}
	}
	var out []step
	for code := 0; code < 1<<(2*len(q)); code++ {
		f, mine := []byte("NNN"), make([]byte, len(q))
		for i, m := range q {
			f[m] = "ICUN"[code>>(2*i)&3]
			mine[i] = f[m]
		}
		if bytes.ContainsAny(mine, "IC") && bytes.IndexByte(mine, 'N') >= 0 {
			continue // the same as with 'U' for 'N'
		}
		out = append(out, step{comp: comp, fates: string(f)})
		if !bytes.ContainsAny(mine, "CUN") {
			out = append(out, step{comp: comp, fates: string(f), act: true})
		}
	}
	return out
}

// FuzzVerdict checks the verdict on state-message sets of up to five
// members. The first byte sets the member count. The rest is read twice.
// First as one arbitrary set: shuffling its members and map entries must
// not change the verdict, and a quorum verdict must reach every green
// count reported. At most one component of a split reaching a quorum
// holds only for sets a history can reach: two members that each report
// a primary the other never saw would both win. So the bytes are then
// read as a history of up to eight steps — per step a component label and
// a fate for each server and an act bit — and world.run checks all four
// properties of Test 2, with member and map orders shuffled, at every
// step.
func FuzzVerdict(f *testing.F) {
	for _, path := range verdictSeeds() {
		f.Add(path)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%5
		data = data[1:]
		members := ids("a", "b", "c", "d", "e")[:n]
		rng := rand.New(rand.NewSource(int64(len(data))))

		raw, in := map[types.ServerID]stateMsg{}, data
		next := func(mod int) uint64 {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return uint64(int(b) % mod)
		}
		subset := func() []types.ServerID {
			var out []types.ServerID
			for bits, i := next(1<<n), 0; i < n; i++ {
				if bits>>i&1 == 1 {
					out = append(out, members[i])
				}
			}
			return out
		}
		for _, m := range members {
			s := stateMsg{Server: m, GreenCount: next(4), AttemptIndex: next(3),
				RedCut: map[types.ServerID]uint64{members[next(n)]: next(3)}}
			s.BaseGreen = next(int(s.GreenCount) + 1)
			s.Prim = PrimComponent{PrimIndex: next(3), AttemptIndex: next(3), Servers: subset()}
			s.Vuln = Vulnerable{Status: next(2) == 1, PrimIndex: next(3), AttemptIndex: next(3), Set: subset(),
				Bits: map[types.ServerID]bool{}}
			for _, b := range subset() {
				s.Vuln.Bits[b] = true
			}
			s.Yellow = Yellow{Status: next(2) == 1, Set: []types.ActionID{{Server: "x", Index: next(3)}}}
			raw[m] = s
		}
		v := decide(members, raw, quorum.DynamicLinear{})
		again := map[types.ServerID]stateMsg{}
		for _, m := range shuffled(rng, members) {
			again[m] = raw[m]
		}
		if w := decide(shuffled(rng, members), again, quorum.DynamicLinear{}); !reflect.DeepEqual(v, w) {
			t.Fatalf("shuffled members decided\n  %+v\nnot\n  %+v", w, v)
		}
		for _, m := range members {
			if v.quorum && v.greenTarget < raw[m].GreenCount {
				t.Fatalf("quorum verdict targets %d greens, %s reported %d", v.greenTarget, m, raw[m].GreenCount)
			}
		}

		w := newWorld(t, n, int64(len(data)))
		for i := 0; i < 8 && len(data) >= 2*n+1; i++ {
			s := step{comp: make([]int, n), act: data[2*n]%2 == 1}
			fates := make([]byte, n)
			for j := range n {
				s.comp[j], fates[j] = int(data[j]), "ICUN"[data[n+j]%4]
			}
			s.fates, data = string(fates), data[2*n+1:]
			w.run(s)
		}
	})
}

// verdictSeeds are histories of three servers from Test 2's space: a
// first step in which all three install, turn an action green or leave
// under mixed fates, then each split with each of those fates.
func verdictSeeds() [][]byte {
	fates := [][]byte{{0, 0, 0, 1}, {0, 1, 2, 0}, {2, 2, 3, 0}, {0, 2, 2, 0}}
	var out [][]byte
	for _, first := range fates {
		for _, comp := range splits3 {
			for _, f := range fates {
				seed := []byte{2, 0, 0, 0}
				seed = append(seed, first...)
				for _, c := range comp {
					seed = append(seed, byte(c))
				}
				out = append(out, append(seed, f...))
			}
		}
	}
	return out
}
