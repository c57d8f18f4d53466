package obs

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// Kind identifies the type of a traced state-machine event.
type Kind uint32

const (
	// EvState: engine state transition. A=from, B=to (core.State values).
	EvState Kind = iota + 1
	// EvInstall: primary component installed. A=primIndex, B=attemptIndex,
	// C=member count.
	EvInstall
	// EvConfRegular: regular configuration delivered. A=conf id, B=members.
	EvConfRegular
	// EvConfTrans: transitional configuration delivered. A=conf id,
	// B=members.
	EvConfTrans
	// EvExchangeStart: a state exchange began. A=exchanges started so
	// far at this server.
	EvExchangeStart
	// EvExchangeEnd: retransmission finished. A=exchanges started so far
	// at this server, B=1 if a quorum was present (→ Construct), 0
	// otherwise (→ NonPrim), C=hash of the state messages the verdict was
	// decided from: members that show different hashes for one exchange
	// decided from different inputs.
	EvExchangeEnd
	// EvAdmissionReject: a submission was rejected by admission control.
	// A=in-flight count at rejection.
	EvAdmissionReject
	// EvWALSync: forced log sync at a protocol barrier. A=point
	// (SyncPoint values).
	EvWALSync
	// EvDedupHit: a keyed submission matched the dedup table or an
	// in-flight action. A=1 replay, 2 in-flight attach, 3 eager-relaxed.
	EvDedupHit
	// EvViewGather: EVS membership gather phase entered. A=proposal conf id.
	EvViewGather
	// EvViewFlush: EVS flush phase entered. A=new conf id, B=members.
	EvViewFlush
	// EvViewInstall: EVS view installed. A=conf id, B=members.
	EvViewInstall
	// EvCatchUp: engine adopted a peer snapshot wholesale. A=green count
	// after catch-up.
	EvCatchUp
)

// SyncPoint enumerates the engine's WAL barrier points (EvWALSync.A).
type SyncPoint uint64

const (
	SyncExchangeStates SyncPoint = iota + 1
	SyncConstruct
	SyncNonPrim
	SyncInstall
	SyncCatchUp
	SyncOther
)

// SyncPointOf maps the engine's barrier-point names to SyncPoint values.
func SyncPointOf(point string) SyncPoint {
	switch point {
	case "exchange-states":
		return SyncExchangeStates
	case "construct":
		return SyncConstruct
	case "nonprim":
		return SyncNonPrim
	case "install":
		return SyncInstall
	case "catch-up":
		return SyncCatchUp
	}
	return SyncOther
}

func (p SyncPoint) String() string {
	switch p {
	case SyncExchangeStates:
		return "exchange-states"
	case SyncConstruct:
		return "construct"
	case SyncNonPrim:
		return "nonprim"
	case SyncInstall:
		return "install"
	case SyncCatchUp:
		return "catch-up"
	}
	return "other"
}

// StateName renders a core.State value for traces. The core package
// injects the real name table from an init function; the default keeps
// obs dependency-free.
var StateName = func(s uint64) string { return "state(" + strconv.FormatUint(s, 10) + ")" }

func (k Kind) String() string {
	switch k {
	case EvState:
		return "state"
	case EvInstall:
		return "install"
	case EvConfRegular:
		return "conf-regular"
	case EvConfTrans:
		return "conf-trans"
	case EvExchangeStart:
		return "exchange-start"
	case EvExchangeEnd:
		return "exchange-end"
	case EvAdmissionReject:
		return "admission-reject"
	case EvWALSync:
		return "wal-sync"
	case EvDedupHit:
		return "dedup-hit"
	case EvViewGather:
		return "view-gather"
	case EvViewFlush:
		return "view-flush"
	case EvViewInstall:
		return "view-install"
	case EvCatchUp:
		return "catch-up"
	}
	return "kind(" + strconv.FormatUint(uint64(k), 10) + ")"
}

// Event is one recorded state-machine event. At is the monotonic offset
// from the tracer's creation; A/B/C are kind-specific operands.
type Event struct {
	Seq  uint64
	At   time.Duration
	Kind Kind
	A    uint64
	B    uint64
	C    uint64
}

// String renders the event for post-mortem dumps.
func (e Event) String() string {
	ts := fmt.Sprintf("%10.4fs", e.At.Seconds())
	switch e.Kind {
	case EvState:
		return fmt.Sprintf("%s #%-5d state      %s -> %s", ts, e.Seq, StateName(e.A), StateName(e.B))
	case EvInstall:
		return fmt.Sprintf("%s #%-5d install    prim=%d attempt=%d members=%d", ts, e.Seq, e.A, e.B, e.C)
	case EvConfRegular:
		return fmt.Sprintf("%s #%-5d conf-reg   id=%d members=%d", ts, e.Seq, e.A, e.B)
	case EvConfTrans:
		return fmt.Sprintf("%s #%-5d conf-trans id=%d members=%d", ts, e.Seq, e.A, e.B)
	case EvExchangeStart:
		return fmt.Sprintf("%s #%-5d exch-start exchange=%d", ts, e.Seq, e.A)
	case EvExchangeEnd:
		outcome := "no-quorum"
		if e.B == 1 {
			outcome = "quorum"
		}
		return fmt.Sprintf("%s #%-5d exch-end   exchange=%d %s input=%016x", ts, e.Seq, e.A, outcome, e.C)
	case EvAdmissionReject:
		return fmt.Sprintf("%s #%-5d admission-reject inflight=%d", ts, e.Seq, e.A)
	case EvWALSync:
		return fmt.Sprintf("%s #%-5d wal-sync   point=%s", ts, e.Seq, SyncPoint(e.A))
	case EvDedupHit:
		how := "replay"
		switch e.A {
		case 2:
			how = "inflight"
		case 3:
			how = "eager"
		}
		return fmt.Sprintf("%s #%-5d dedup      %s", ts, e.Seq, how)
	case EvViewGather:
		return fmt.Sprintf("%s #%-5d evs-gather id=%d", ts, e.Seq, e.A)
	case EvViewFlush:
		return fmt.Sprintf("%s #%-5d evs-flush  id=%d members=%d", ts, e.Seq, e.A, e.B)
	case EvViewInstall:
		return fmt.Sprintf("%s #%-5d evs-install id=%d members=%d", ts, e.Seq, e.A, e.B)
	case EvCatchUp:
		return fmt.Sprintf("%s #%-5d catch-up   greens=%d", ts, e.Seq, e.A)
	}
	return fmt.Sprintf("%s #%-5d %s a=%d b=%d c=%d", ts, e.Seq, e.Kind, e.A, e.B, e.C)
}

// slot is one ring entry. Every field is atomic so concurrent Record and
// Events never constitute a data race; seq doubles as a seqlock: a
// writer zeroes it, stores the payload, then publishes the new sequence
// number. A reader that sees the same nonzero seq before and after
// reading the payload got a consistent snapshot.
type slot struct {
	seq  atomic.Uint64
	at   atomic.Int64
	kind atomic.Uint32
	a    atomic.Uint64
	b    atomic.Uint64
	c    atomic.Uint64
}

// Tracer is a bounded lock-free ring of Events. Record is wait-free for
// a single writer and safe (last-writer-wins per slot) for many; Events
// returns the most recent events, skipping any slot caught mid-write.
// A nil *Tracer is valid: Record and Events become no-ops.
type Tracer struct {
	slots []slot
	mask  uint64
	head  atomic.Uint64
	start time.Time
}

// NewTracer builds a ring holding the last n events (rounded up to a
// power of two, minimum 16).
func NewTracer(n int) *Tracer {
	size := 16
	for size < n {
		size <<= 1
	}
	return &Tracer{
		slots: make([]slot, size),
		mask:  uint64(size - 1),
		start: time.Now(),
	}
}

// Record appends an event. Allocation-free.
func (t *Tracer) Record(k Kind, a, b, c uint64) {
	if t == nil {
		return
	}
	at := time.Since(t.start)
	seq := t.head.Add(1)
	s := &t.slots[seq&t.mask]
	s.seq.Store(0) // invalidate for readers while fields are torn
	s.at.Store(int64(at))
	s.kind.Store(uint32(k))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.seq.Store(seq)
}

// Events returns up to n most recent events, oldest first. Slots being
// concurrently overwritten are skipped.
func (t *Tracer) Events(n int) []Event {
	if t == nil || n <= 0 {
		return nil
	}
	head := t.head.Load()
	if head == 0 {
		return nil
	}
	if uint64(n) > head {
		n = int(head)
	}
	if n > len(t.slots) {
		n = len(t.slots)
	}
	out := make([]Event, 0, n)
	for seq := head - uint64(n) + 1; seq <= head; seq++ {
		s := &t.slots[seq&t.mask]
		got := s.seq.Load()
		if got != seq {
			continue // overwritten or mid-write
		}
		ev := Event{
			Seq:  seq,
			At:   time.Duration(s.at.Load()),
			Kind: Kind(s.kind.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
			C:    s.c.Load(),
		}
		if s.seq.Load() != seq {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// Len reports how many events have ever been recorded.
func (t *Tracer) Len() uint64 {
	if t == nil {
		return 0
	}
	return t.head.Load()
}
