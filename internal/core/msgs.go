package core

import (
	"evsdb/internal/types"
)

// PrimComponent identifies the last primary component a server knows of
// (paper, Appendix A "primComponent").
type PrimComponent struct {
	// PrimIndex counts installed primary components.
	PrimIndex uint64 `json:"primIndex"`
	// AttemptIndex is the attempt by which the primary was installed.
	AttemptIndex uint64 `json:"attemptIndex"`
	// Servers is the membership of that primary component.
	Servers []types.ServerID `json:"servers"`
}

// Equal reports record identity (used by updatedGroup computation).
func (p PrimComponent) Equal(o PrimComponent) bool {
	return p.PrimIndex == o.PrimIndex &&
		p.AttemptIndex == o.AttemptIndex &&
		types.EqualMembers(p.Servers, o.Servers)
}

// Less orders primary components by recency.
func (p PrimComponent) Less(o PrimComponent) bool {
	if p.PrimIndex != o.PrimIndex {
		return p.PrimIndex < o.PrimIndex
	}
	return p.AttemptIndex < o.AttemptIndex
}

// Vulnerable records the status of the last installation attempt this
// server agreed to (paper § 5, Appendix A "vulnerable"). A server that
// generated a CPC message is vulnerable — it does not know how the
// attempt ended — until it has complete knowledge on persistent storage.
type Vulnerable struct {
	Status       bool                    `json:"status"` // true = Valid
	PrimIndex    uint64                  `json:"primIndex"`
	AttemptIndex uint64                  `json:"attemptIndex"`
	Set          []types.ServerID        `json:"set"`
	Bits         map[types.ServerID]bool `json:"bits"`
}

// sameAttempt reports whether two records describe the same attempt.
func (v Vulnerable) sameAttempt(o Vulnerable) bool {
	return v.PrimIndex == o.PrimIndex && v.AttemptIndex == o.AttemptIndex
}

// Yellow is the set of actions delivered in a transitional configuration
// of a primary component (paper Fig. 3): their order is known unless the
// installation failed everywhere.
type Yellow struct {
	Status bool             `json:"status"` // true = Valid
	Set    []types.ActionID `json:"set"`    // ordered
}

type engineMsgKind int

// Kind 1 is unused: the codec's version 2 gave it to a single-action
// frame, and the other kinds keep their numbers.
const (
	emState engineMsgKind = iota + 2
	emCPC
	emRetrans
	emSnapshot
	// emBatch carries an ActionBatch of n >= 1 actions created at one
	// server, coalesced into a single Safe multicast. The batch occupies
	// one position in the total order; receivers unpack it and process
	// the inner actions in batch order, so every server observes the same
	// expanded sequence (see onActionBatch).
	emBatch
)

// stateMsg is the end-to-end state exchanged once per view change
// (paper, Appendix A "State message"). This single round replaces the
// per-action acknowledgments of 2PC and COReL.
type stateMsg struct {
	Server types.ServerID `json:"server"`
	Conf   types.ConfID   `json:"conf"`
	// Round numbers the exchange within this configuration: a § 5.2
	// catch-up snapshot restarts the exchange in round+1, and stale state
	// messages from the superseded round are discarded.
	Round uint64 `json:"round,omitempty"`

	// RedCut[s] is the index of the last action created by s this server
	// holds.
	RedCut map[types.ServerID]uint64 `json:"redCut"`
	// GreenCount is the number of actions this server has marked green.
	GreenCount uint64 `json:"greenCount"`
	// BaseGreen counts greens discarded as white; the server can only
	// retransmit green positions in (BaseGreen, GreenCount].
	BaseGreen uint64 `json:"baseGreen"`
	// GreenSeqKnown[s] is the highest green count known reached at s
	// (the paper's greenLines, carried as counts).
	GreenSeqKnown map[types.ServerID]uint64 `json:"greenSeqKnown"`

	AttemptIndex uint64        `json:"attemptIndex"`
	Prim         PrimComponent `json:"prim"`
	Vuln         Vulnerable    `json:"vuln"`
	Yellow       Yellow        `json:"yellow"`
}

// cpcMsg is the Create Primary Component message (paper § 3.1).
type cpcMsg struct {
	Server types.ServerID `json:"server"`
	Conf   types.ConfID   `json:"conf"`
}

// snapMsg carries a § 5.2 catch-up snapshot: when the exchange discovers
// a green gap with no live holder (a member recovered below the
// component's white-collection base), the most knowledgeable member
// transfers its full green state and the exchange restarts one round
// later.
type snapMsg struct {
	Server types.ServerID `json:"server"`
	Conf   types.ConfID   `json:"conf"`
	Round  uint64         `json:"round"`
	Snap   *JoinSnapshot  `json:"snap"`
}

// retransMsg carries one action retransmitted during the exchange phase,
// tagged with the knowledge level the receiver must assign (paper OR-3).
type retransMsg struct {
	Action types.Action `json:"action"`
	// Green marks an action retransmitted from the green prefix;
	// GreenSeq is its global green sequence number.
	Green    bool   `json:"green,omitempty"`
	GreenSeq uint64 `json:"greenSeq,omitempty"`
}

// engineMsg is the envelope for all replication-engine traffic. Every
// engine message is multicast with Safe delivery. Encoding and decoding
// live in codec.go (versioned binary frames for the hot kinds, JSON
// bodies for the rare membership/exchange kinds).
type engineMsg struct {
	Kind    engineMsgKind  `json:"kind"`
	Batch   []types.Action `json:"batch,omitempty"`
	State   *stateMsg      `json:"state,omitempty"`
	CPC     *cpcMsg        `json:"cpc,omitempty"`
	Retrans *retransMsg    `json:"retrans,omitempty"`
	Snap    *snapMsg       `json:"snap,omitempty"`
}
