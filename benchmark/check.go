package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"evsdb/internal/core"
	"evsdb/internal/db"
	"evsdb/internal/types"
)

// quiesceTimeout bounds the wait for every replica to apply every
// acknowledged action once the load has stopped.
const quiesceTimeout = 10 * time.Second

// verify runs the correctness checks every workload shares. It returns the
// first violation, naming the workload and the replica.
func verify(st *stack, r *loadResult) error {
	name := r.spec.Name
	if err := checkReplyOrder(r.ops); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if r.reads.bad > 0 {
		return fmt.Errorf("%s: %d of %d reads returned a value the writer never issued; first: %s",
			name, r.reads.bad, r.reads.reads, r.reads.badMsg)
	}
	acked, attempted := 0, 0
	for _, s := range r.ops.state {
		if s != opPending {
			attempted++
		}
		if s == opOK {
			acked++
		}
	}
	// Quiesce: every acknowledged action is green everywhere.
	want := r.greenAt0 + uint64(acked)
	if err := st.waitGreen(want, quiesceTimeout, st.all()...); err != nil {
		return fmt.Errorf("%s: quiesce: %w", name, err)
	}
	if r.spec.inject == "diverge" {
		// One replica applies an update the others never see.
		_ = st.reps[len(st.reps)-1].db.Apply(db.EncodeUpdate(db.Set("diverged", "x")))
	}
	if err := checkConvergence(st); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	// Acknowledged ops = green applies attributable to the run. An op that
	// failed or timed out may still have been ordered, hence the range.
	for i := range st.reps {
		status, ok := st.status(i)
		if !ok {
			return fmt.Errorf("%s: replica %s gives no status after the run", name, st.ids[i])
		}
		applied := status.GreenCount - r.greenAt0
		if applied < uint64(acked) || applied > uint64(attempted) {
			return fmt.Errorf("%s: replica %s applied %d actions during the run, but %d were acknowledged of %d attempted",
				name, st.ids[i], applied, acked, attempted)
		}
	}
	return nil
}

// checkReplyOrder requires Reply.GreenSeq to increase strictly, per home
// replica, in issue order.
func checkReplyOrder(l *opLog) error {
	last := make(map[uint8]uint64)
	for i, s := range l.state {
		if s != opOK {
			continue
		}
		h := l.home[i]
		if l.seq[i] <= last[h] {
			return fmt.Errorf("home %s: op %d replied green seq %d after %d", serverID(int(h)), i, l.seq[i], last[h])
		}
		last[h] = l.seq[i]
	}
	return nil
}

// checkConvergence requires the replicas' green histories to agree wherever
// they overlap, and replicas with equal green counts to hold byte-identical
// databases.
func checkConvergence(st *stack) error {
	type hist struct {
		first uint64
		ids   []types.ActionID
	}
	hs := make([]hist, len(st.reps))
	for i, r := range st.reps {
		ids, first := r.eng.GreenHistory()
		hs[i] = hist{first: first, ids: ids}
	}
	for i := 1; i < len(hs); i++ {
		a, b := hs[0], hs[i]
		lo := max(a.first, b.first)
		hi := min(a.first+uint64(len(a.ids)), b.first+uint64(len(b.ids)))
		for p := lo; p < hi; p++ {
			if x, y := a.ids[p-a.first], b.ids[p-b.first]; x != y {
				return fmt.Errorf("total order violated at %d: %s has %v, %s has %v", p, st.ids[0], x, st.ids[i], y)
			}
		}
	}
	type state struct {
		replica types.ServerID
		sum     [sha256.Size]byte
	}
	byCount := make(map[uint64]state)
	for i, r := range st.reps {
		status, ok := st.status(i)
		if !ok {
			return fmt.Errorf("replica %s gives no status", st.ids[i])
		}
		// The snapshot may be a few applies ahead of the status; its own
		// version field would show, and the comparison would fail loudly
		// rather than pass wrongly. After quiescing, nothing moves.
		sum := sha256.Sum256(r.db.Snapshot())
		if first, seen := byCount[status.GreenCount]; !seen {
			byCount[status.GreenCount] = state{replica: st.ids[i], sum: sum}
		} else if first.sum != sum {
			return fmt.Errorf("diverged snapshot: replicas %s and %s both applied %d actions but hold different databases",
				first.replica, st.ids[i], status.GreenCount)
		}
	}
	return nil
}

// durabilityEpilogue crashes every replica, so each log keeps only what was
// synced, restarts them from those logs, and requires every acknowledged
// key to read back its acknowledged value on every replica.
func durabilityEpilogue(st *stack, r *loadResult) error {
	name := r.spec.Name
	st.crashAll()
	if err := st.recoverAll(); err != nil {
		return fmt.Errorf("%s: recover: %w", name, err)
	}
	if err := st.waitPrimary(quiesceTimeout, st.all()...); err != nil {
		return fmt.Errorf("%s: after recovery: %w", name, err)
	}
	ctx := context.Background()
	for i, s := range r.ops.state {
		if s != opOK || i >= len(r.in.uniqueKeys) {
			continue
		}
		key, want := r.in.uniqueKeys[i], r.in.uniqueVals[i]
		q := db.Get(key)
		for j, rep := range st.reps {
			res, err := rep.eng.Query(ctx, q, core.QueryWeak)
			if err != nil || !res.Found || res.Value != want {
				return fmt.Errorf("%s: acknowledged key %s lost at replica %s after crash recovery (found=%v, err=%v)",
					name, key, st.ids[j], res.Found, err)
			}
		}
	}
	return nil
}
