package core

import (
	"cmp"
	"fmt"
	"slices"

	"evsdb/internal/obs"
	"evsdb/internal/storage"
	"evsdb/internal/types"
)

// recKind is a WAL record's kind (byte [2] of its frame, see codec.go).
// The engine appends records continuously (page-cache speed) and forces
// them at the paper's "** sync to disk" points plus once per locally
// generated action. Actions travel in batch records only: each carries
// n >= 1 actions (or ids) that share one append, and replay processes
// them in stored order.
type recKind byte

// Kinds 1-3 are unused: the codec's version 2 gave them to single-action
// red, green and ongoing records, and the other kinds keep their numbers.
const (
	recState        recKind = iota + 4 // engine metadata snapshot at a sync point
	recCheckpoint                      // full base state (join bootstrap / compaction)
	recRedBatch                        // actions that entered the queue (paper MarkRed), in queue order
	recGreenBatch                      // actions promoted to green, in green order
	recOngoingBatch                    // locally created actions (paper ongoingQueue), in index order
)

// logRecord is the decoded form of one WAL record.
type logRecord struct {
	Kind    recKind
	Actions []types.Action   // recRedBatch and recOngoingBatch
	Track   bool             // recRedBatch: the live engine tracked the actions
	IDs     []types.ActionID // recGreenBatch
	State   *persistState    // recState
	Snap    *JoinSnapshot    // recCheckpoint
}

// persistState is the engine metadata written at sync points.
type persistState struct {
	ActionIndex  uint64                    `json:"actionIndex"`
	AttemptIndex uint64                    `json:"attemptIndex"`
	Prim         PrimComponent             `json:"prim"`
	Vuln         Vulnerable                `json:"vuln"`
	Yellow       Yellow                    `json:"yellow"`
	GreenKnown   map[types.ServerID]uint64 `json:"greenKnown"`
	Servers      []types.ServerID          `json:"servers"`
}

// appendLog writes one record to the log tail (not yet durable).
func (e *Engine) appendLog(rec logRecord) {
	if e.replaying {
		return
	}
	bp := encBufs.Get().(*[]byte)
	buf := appendLogRecord((*bp)[:0], rec)
	err := e.log.Append(buf)
	*bp = buf[:0]
	encBufs.Put(bp)
	if err != nil {
		e.ioFailed = true
	}
}

// errCrashPoint is the sentinel panic used to halt the engine goroutine
// exactly at a "** sync to disk" barrier when a test hook injects a crash.
var errCrashPoint = fmt.Errorf("core: crash injected at sync barrier")

// syncLog forces the log (a paper "** sync to disk" point). The point
// name identifies which barrier this is; when a SyncHook is installed and
// asks for a crash, the engine unwinds via errCrashPoint and never
// executes the protocol step that follows the barrier — exactly the
// window the paper's vulnerable/yellow machinery exists to cover.
func (e *Engine) syncLog(point string) {
	if e.replaying {
		return
	}
	if err := e.log.Sync(); err != nil {
		e.ioFailed = true
		e.obs.Log.Error("stable storage failed at sync barrier",
			"server", string(e.id), "conf", e.conf.ID, "state", e.st.String(), "point", point, "err", err)
	}
	if c := e.om.walSync[point]; c != nil {
		c.Inc()
	}
	e.obs.Trace.Record(obs.EvWALSync, uint64(obs.SyncPointOf(point)), 0, 0)
	if e.syncHook != nil && e.syncHook(point) {
		panic(errCrashPoint)
	}
}

// persistState appends the metadata snapshot record.
func (e *Engine) persistState() { e.appendLog(e.stateRecord()) }

// stateRecord builds the recState record of the engine's current
// metadata. It shares the engine's maps: encode it before they change.
func (e *Engine) stateRecord() logRecord {
	servers := make([]types.ServerID, 0, len(e.serverSet))
	for s := range e.serverSet {
		servers = append(servers, s)
	}
	types.SortServerIDs(servers)
	return logRecord{Kind: recState, State: &persistState{
		ActionIndex:  e.actionIndex,
		AttemptIndex: e.attemptIndex,
		Prim:         e.prim,
		Vuln:         e.vuln,
		Yellow:       e.yellow,
		GreenKnown:   e.greenKnown,
		Servers:      servers,
	}}
}

// checkpoint compacts the log: the engine's full current state — a
// snapshot plus the red zone and metadata — replaces the record history.
// Recovery replays from the checkpoint instead of from genesis.
func (e *Engine) checkpoint() error {
	compactable, ok := e.log.(storage.Compactable)
	if !ok {
		return fmt.Errorf("core: log does not support compaction")
	}
	records := make([][]byte, 0, 4)
	add := func(rec logRecord) { records = append(records, appendLogRecord(nil, rec)) }
	add(logRecord{Kind: recCheckpoint, Snap: e.buildJoinSnapshot()})
	if reds := e.queue.reds(); len(reds) > 0 {
		add(logRecord{Kind: recRedBatch, Actions: reds})
	}
	// Locally created actions that have not entered the queue yet must
	// survive compaction: they may never have left this machine.
	if len(e.ongoing) > 0 {
		ongoing := make([]types.Action, 0, len(e.ongoing))
		for _, a := range e.ongoing {
			ongoing = append(ongoing, a)
		}
		slices.SortFunc(ongoing, func(a, b types.Action) int { return cmp.Compare(a.ID.Index, b.ID.Index) })
		add(logRecord{Kind: recOngoingBatch, Actions: ongoing})
	}
	add(e.stateRecord())
	if err := compactable.Rewrite(records); err != nil {
		e.ioFailed = true
		return fmt.Errorf("compact log: %w", err)
	}
	return nil
}

// recover rebuilds engine state from the durable log (paper CodeSegment
// A.13): replay every record, then re-mark as red any locally generated
// action that survived in the ongoing queue but had not entered the
// queue. The server restarts in NonPrim; its vulnerable record — if it
// crashed while vulnerable — survives and keeps it from presenting itself
// as knowledgeable until an exchange resolves the attempt.
func (e *Engine) recover() error {
	records, err := e.log.Records()
	if err != nil {
		return fmt.Errorf("read log: %w", err)
	}
	e.replaying = true
	defer func() { e.replaying = false }()

	ongoing := make(map[types.ActionID]types.Action)
	for i, buf := range records {
		rec, err := decodeLogRecord(buf)
		if err != nil {
			return fmt.Errorf("decode log record %d: %w", i, err)
		}
		switch rec.Kind {
		case recCheckpoint:
			if err := e.restoreSnapshot(rec.Snap); err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
		case recRedBatch:
			// Replay tracks what the live engine tracked: it redoes the
			// eager apply of relaxed actions the live engine applied while
			// red, under the live rule, so a key applied under one action
			// id is not applied again under another, and their green
			// records skip re-application. A relaxed action the live
			// engine greened at once applies at its green record, in green
			// order.
			e.markRedBatch(rec.Actions, rec.Track)
		case recGreenBatch:
			e.applyGreenBatch(e.queuedActions(rec.IDs))
		case recOngoingBatch:
			for _, a := range rec.Actions {
				ongoing[a.ID] = a
				e.ongoing[a.ID] = a
				if a.ID.Index > e.actionIndex {
					e.actionIndex = a.ID.Index
				}
			}
		case recState:
			e.restoreState(rec.State)
		}
	}
	// Ongoing actions that never reached the queue become red again; the
	// next exchange propagates them (they are never lost, paper § A.13).
	// Replay is over, so markRedBatch logs their red record as it does
	// outside replay. A green record written later names the action by id,
	// and the next replay applies it only if the action is queued by then:
	// without the red record the action is still just ongoing at that
	// point, its green record is skipped, and every later green position
	// shifts by one.
	e.replaying = false
	var revived []types.Action
	for idx := e.redCut[e.id] + 1; ; idx++ {
		a, ok := ongoing[types.ActionID{Server: e.id, Index: idx}]
		if !ok {
			break
		}
		revived = append(revived, a)
	}
	e.markRedBatch(revived, false)
	e.st = NonPrim
	e.rebuildDirtyOverlay()
	return nil
}

// restoreState loads a metadata snapshot record.
func (e *Engine) restoreState(ps *persistState) {
	if ps.ActionIndex > e.actionIndex {
		e.actionIndex = ps.ActionIndex
	}
	e.attemptIndex = ps.AttemptIndex
	e.prim = ps.Prim
	e.vuln = ps.Vuln
	e.yellow = ps.Yellow
	for s, v := range ps.GreenKnown {
		if v > e.greenKnown[s] {
			e.greenKnown[s] = v
		}
	}
	if len(ps.Servers) > 0 {
		e.serverSet = make(map[types.ServerID]bool, len(ps.Servers))
		for _, s := range ps.Servers {
			e.serverSet[s] = true
		}
	}
}
