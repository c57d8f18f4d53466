// Package types defines the identifiers, actions and coloring model shared
// by the replication engine, the group communication layer and the
// baselines.
//
// The vocabulary follows Amir & Tutu, "From Total Order to Database
// Replication" (CNDS-2001-6): an Action is the unit of replication, an
// ActionID names it globally, and a Color records how much a given server
// knows about the action's position in the global persistent order.
package types

import (
	"fmt"
	"strings"
)

// ServerID uniquely identifies a replication server. Identifiers are
// retained across crashes and recoveries (the paper's recovery model), so
// they are stable strings rather than ephemeral handles.
type ServerID string

// ActionID identifies an action globally: the creating server plus a
// per-server monotonically increasing index. The pair is unique because a
// server never reuses an index, even across crashes (the index is part of
// the state synced to stable storage).
type ActionID struct {
	Server ServerID `json:"server"`
	Index  uint64   `json:"index"`
}

// Zero reports whether the id is the zero value (no action).
func (a ActionID) Zero() bool { return a.Server == "" && a.Index == 0 }

// Less imposes the deterministic canonical order used when reds are
// promoted to green on primary installation: order by (Server, Index).
// Every server applies the same rule to the same set, so the resulting
// green order is identical everywhere (paper CodeSegment A.10).
func (a ActionID) Less(b ActionID) bool {
	if a.Server != b.Server {
		return a.Server < b.Server
	}
	return a.Index < b.Index
}

func (a ActionID) String() string {
	return fmt.Sprintf("%s:%d", a.Server, a.Index)
}

// Color is the knowledge level a server associates with an action
// (paper Figs. 1 and 3).
type Color int

const (
	// Red means the action has been ordered within the local component
	// but its global order is unknown.
	Red Color = iota + 1
	// Yellow means the action was delivered in a transitional
	// configuration of a primary component: its order is known unless the
	// primary installation failed everywhere.
	Yellow
	// Green means the server has determined the action's global order.
	Green
	// White means the server knows all servers marked the action green;
	// it may be discarded.
	White
)

func (c Color) String() string {
	switch c {
	case Red:
		return "red"
	case Yellow:
		return "yellow"
	case Green:
		return "green"
	case White:
		return "white"
	default:
		return fmt.Sprintf("Color(%d)", int(c))
	}
}

// ActionType distinguishes regular client actions from the online
// reconfiguration actions of § 5.1.
type ActionType int

const (
	// ActionUpdate is a regular action carrying a (possibly empty) query
	// part and an update part.
	ActionUpdate ActionType = iota + 1
	// ActionQuery is a query-only action: it reads a consistent state and
	// needs no global ordering beyond the generator's FIFO position.
	ActionQuery
	// ActionJoin is a PERSISTENT_JOIN: when it turns green, every server
	// extends its data structures with the joining server id.
	ActionJoin
	// ActionLeave is a PERSISTENT_LEAVE: when it turns green, every server
	// removes the parting server id.
	ActionLeave
	// ActionActive carries the name of a registered deterministic
	// procedure invoked at ordering time (§ 6 "active transactions").
	ActionActive
)

func (t ActionType) String() string {
	switch t {
	case ActionUpdate:
		return "update"
	case ActionQuery:
		return "query"
	case ActionJoin:
		return "join"
	case ActionLeave:
		return "leave"
	case ActionActive:
		return "active"
	default:
		return fmt.Sprintf("ActionType(%d)", int(t))
	}
}

// Semantics selects the consistency treatment of an action (paper § 6).
type Semantics int

const (
	// SemStrict (the default) applies the action only once its global
	// order is known (green), preserving one-copy serializability.
	SemStrict Semantics = iota
	// SemCommutative applies the action immediately, even in a
	// non-primary component: order is irrelevant as long as every action
	// is eventually applied everywhere (e.g. inventory increments).
	// One-copy serializability is not maintained during partitions;
	// states converge after merge.
	SemCommutative
	// SemTimestamp applies the action immediately; only the highest
	// timestamp per key survives, so replay in any order converges
	// (e.g. location tracking).
	SemTimestamp
)

// Relaxed reports whether the semantics class permits application
// before the global order is known (paper § 6): commutative and
// timestamp actions converge regardless of apply order.
func (s Semantics) Relaxed() bool {
	return s == SemCommutative || s == SemTimestamp
}

func (s Semantics) String() string {
	switch s {
	case SemStrict:
		return "strict"
	case SemCommutative:
		return "commutative"
	case SemTimestamp:
		return "timestamp"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// Action is the unit of replication: a deterministic transition from one
// database state to the next (paper § 2.2). Client transactions translate
// into actions.
type Action struct {
	ID   ActionID   `json:"id"`
	Type ActionType `json:"type"`

	// Semantics selects strict or relaxed consistency treatment.
	Semantics Semantics `json:"semantics,omitempty"`

	// GreenLine is the number of actions the creating server had marked
	// green when the action was created. It lets receivers advance their
	// knowledge of the creator's green line without extra messages (used
	// for white-action collection).
	GreenLine uint64 `json:"greenLine"`

	// Client identifies the submitting client. Together with ClientSeq it
	// forms the action's idempotency key: the engine applies at most one
	// green action per (Client, ClientSeq) pair and answers retries with
	// the original reply. Empty means the action carries no key.
	Client string `json:"client,omitempty"`

	// ClientSeq is the client's submission sequence number for this
	// logical operation. Retries of the same operation — including via a
	// different replica after failover — reuse the same value.
	ClientSeq uint64 `json:"clientSeq,omitempty"`

	// Query and Update are the two halves of an action; either may be
	// empty. Their interpretation belongs to the database layer.
	Query  []byte `json:"query,omitempty"`
	Update []byte `json:"update,omitempty"`

	// Target is the server id being joined or removed for
	// ActionJoin/ActionLeave actions.
	Target ServerID `json:"target,omitempty"`

	// Proc names the registered deterministic procedure for ActionActive.
	Proc string `json:"proc,omitempty"`
}

// Clone returns a deep copy so queues can hand actions across goroutine
// boundaries without sharing the byte slices.
func (a Action) Clone() Action {
	c := a
	if a.Query != nil {
		c.Query = append([]byte(nil), a.Query...)
	}
	if a.Update != nil {
		c.Update = append([]byte(nil), a.Update...)
	}
	return c
}

func (a Action) String() string {
	return fmt.Sprintf("action{%s %s}", a.ID, a.Type)
}

// ConfID identifies a group-communication configuration (view). It is
// unique per installation: a counter plus the id of the coordinator that
// proposed the view.
type ConfID struct {
	Counter  uint64   `json:"counter"`
	Proposer ServerID `json:"proposer"`
}

// Zero reports whether the id is the zero value.
func (c ConfID) Zero() bool { return c.Counter == 0 && c.Proposer == "" }

// Less orders configuration ids (by counter, then proposer) so membership
// agreement can pick a maximum.
func (c ConfID) Less(d ConfID) bool {
	if c.Counter != d.Counter {
		return c.Counter < d.Counter
	}
	return c.Proposer < d.Proposer
}

func (c ConfID) String() string {
	return fmt.Sprintf("conf(%d@%s)", c.Counter, c.Proposer)
}

// Configuration is a membership notification delivered by the group
// communication layer: the set of reachable servers (a view).
type Configuration struct {
	ID      ConfID     `json:"id"`
	Members []ServerID `json:"members"`
	// Transitional marks a reduced EVS membership delivered between the
	// old regular configuration and the next regular configuration.
	Transitional bool `json:"transitional"`
}

// Contains reports whether id is a member of the configuration.
func (c Configuration) Contains(id ServerID) bool {
	for _, m := range c.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the configuration.
func (c Configuration) Clone() Configuration {
	d := c
	d.Members = append([]ServerID(nil), c.Members...)
	return d
}

func (c Configuration) String() string {
	names := make([]string, len(c.Members))
	for i, m := range c.Members {
		names[i] = string(m)
	}
	kind := "reg"
	if c.Transitional {
		kind = "trans"
	}
	return fmt.Sprintf("%s %s{%s}", c.ID, kind, strings.Join(names, ","))
}

// SortServerIDs sorts ids in place in their canonical order and returns
// the slice for convenience.
func SortServerIDs(ids []ServerID) []ServerID {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// EqualMembers reports whether two member sets contain the same ids,
// regardless of order.
func EqualMembers(a, b []ServerID) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[ServerID]bool, len(a))
	for _, id := range a {
		seen[id] = true
	}
	for _, id := range b {
		if !seen[id] {
			return false
		}
	}
	return true
}
