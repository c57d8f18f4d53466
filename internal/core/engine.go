// Package core implements the replication engine of Amir & Tutu, "From
// Total Order to Database Replication" (CNDS-2001-6 / ICDCS 2002).
//
// The engine turns the Safe-delivery total order of an Extended Virtual
// Synchrony group communication layer into a global persistent consistent
// order of actions across a partitionable set of database replicas,
// without per-action end-to-end acknowledgments: one state-exchange round
// runs per membership change instead.
//
// The state machine (paper Fig. 4, Appendix A) has eight states:
//
//	RegPrim        primary component, steady state: safe-delivered
//	               actions turn green immediately
//	TransPrim      primary's transitional configuration: actions turn
//	               yellow
//	ExchangeStates after a view change: servers exchange state messages
//	ExchangeActions servers retransmit actions to reach the maximal
//	               common state
//	Construct      quorum reached: exchange Create Primary Component
//	               (CPC) messages
//	No             interrupted installation, presumed failed
//	Un             interrupted installation, outcome unknown
//	NonPrim        non-primary component: actions turn red
//
// Action knowledge follows the coloring model (Figs. 1 and 3): red
// (ordered locally), yellow (ordered by a primary's transitional
// configuration), green (global order known), white (green everywhere,
// discardable).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"evsdb/internal/db"
	"evsdb/internal/evs"
	"evsdb/internal/obs"
	"evsdb/internal/quorum"
	"evsdb/internal/storage"
	"evsdb/internal/types"
)

// State is the replication engine's state-machine state.
type State int

const (
	// NonPrim: member of a non-primary component.
	NonPrim State = iota + 1
	// RegPrim: member of the primary component, regular configuration.
	RegPrim
	// TransPrim: primary component, transitional configuration.
	TransPrim
	// ExchangeStates: exchanging state messages after a view change.
	ExchangeStates
	// ExchangeActions: retransmitting actions to the maximal common state.
	ExchangeActions
	// Construct: attempting to install a new primary component.
	Construct
	// No: installation interrupted; no server is known to have installed.
	No
	// Un: installation interrupted; some server may have installed.
	Un
)

func (s State) String() string {
	switch s {
	case NonPrim:
		return "NonPrim"
	case RegPrim:
		return "RegPrim"
	case TransPrim:
		return "TransPrim"
	case ExchangeStates:
		return "ExchangeStates"
	case ExchangeActions:
		return "ExchangeActions"
	case Construct:
		return "Construct"
	case No:
		return "No"
	case Un:
		return "Un"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// GroupCom is the group-communication service the engine requires:
// Safe-delivery multicast plus EVS membership events.
type GroupCom interface {
	Multicast(payload []byte, service evs.ServiceLevel) error
	Events() <-chan evs.Event
}

// Errors returned by the public API.
var (
	ErrClosed = errors.New("core: engine closed")
	ErrLeft   = errors.New("core: server has left the replica set")

	// ErrRetryable marks transient failures: the same operation may
	// succeed on another replica or after a delay (overload, storage
	// failure, departed replica). Clients may safely retry — writes carry
	// idempotency keys, so a retry never double-applies.
	ErrRetryable = errors.New("retryable")
	// ErrAborted marks deterministic aborts (failed CAS guard, failed
	// procedure, malformed update, stale idempotency sequence): every
	// replica would answer identically, so retrying is pointless.
	ErrAborted = errors.New("aborted")
	// ErrOverloaded is the retryable failure returned when the engine's
	// in-flight action budget is exhausted.
	ErrOverloaded = fmt.Errorf("%w: core: in-flight action budget exhausted", ErrRetryable)
)

// Reply answers a submitted action once its outcome is known.
type Reply struct {
	// Err is non-empty when the action failed: a deterministic abort
	// (failed CAS guard, failed procedure, malformed update) unless
	// Retryable is set.
	Err string
	// Retryable marks failures that are transient rather than
	// deterministic: overload, storage failure, a departed replica. A
	// client may retry them elsewhere; deterministic aborts it must not.
	Retryable bool
	// Result holds the query part's answer, if the action had one.
	Result db.Result
	// GreenSeq is the action's global order position (0 for relaxed-
	// semantics replies issued before global ordering).
	GreenSeq uint64
}

// Failure returns nil for a successful reply, or an error wrapping
// ErrRetryable or ErrAborted so callers (httpapi, tooling) can map the
// outcome to retry decisions with errors.Is.
func (r Reply) Failure() error {
	if r.Err == "" {
		return nil
	}
	if r.Retryable {
		return fmt.Errorf("%w: %s", ErrRetryable, r.Err)
	}
	return fmt.Errorf("%w: %s", ErrAborted, r.Err)
}

// QueryLevel selects the consistency of a read (paper § 6).
type QueryLevel int

const (
	// QueryStrict orders the query like an action: the answer reflects
	// the global prefix and is only produced in a primary component.
	QueryStrict QueryLevel = iota + 1
	// QueryWeak answers immediately from the consistent but possibly
	// obsolete green state.
	QueryWeak
	// QueryDirty answers immediately from the green state plus the
	// effects of red (locally ordered) actions.
	QueryDirty
)

// Config assembles an engine.
type Config struct {
	// ID is this server's identifier.
	ID types.ServerID
	// Servers is the initial replica set (paper § 2: fixed and known in
	// advance; § 5.1 joins and leaves adjust it at runtime).
	Servers []types.ServerID
	// GC is the group communication endpoint.
	GC GroupCom
	// Log is the stable storage for the engine's sync points.
	Log storage.Log
	// DB is the replicated database; nil means a fresh empty database.
	DB *db.Database
	// Quorum selects the primary component rule; nil means dynamic
	// linear voting with unit weights.
	Quorum quorum.System
	// Recover replays Log before starting (crash recovery).
	Recover bool
	// MaxInFlight bounds how many client actions may be awaiting their
	// outcome at once (pending replies plus requests buffered across an
	// exchange). Submissions beyond the budget are refused immediately
	// with a retryable overload reply instead of queueing without bound.
	// Zero means DefaultMaxInFlight; negative disables the bound.
	MaxInFlight int
	// MaxBatchActions caps how many actions one ActionBatch carries —
	// one Safe multicast, one green-apply transaction — and how many
	// submissions share one ongoing WAL record. The actions one group-
	// commit sync makes durable go out in bundles of at most this many.
	// Zero means DefaultMaxBatchActions; 1 or negative disables batching.
	MaxBatchActions int
	// SyncHook, if set, is invoked on the engine goroutine at every
	// "** sync to disk" barrier, after the forced write completes and
	// before any subsequent protocol message is sent. Returning true
	// halts the engine immediately — mid-handler — emulating a process
	// crash exactly at the barrier. Used by fault-injection harnesses
	// (internal/sim); nil in production.
	SyncHook func(point string) bool
	// Obs is the observability bundle (metrics registry, event tracer,
	// logger) this engine instruments. Nil means a fresh private bundle;
	// a process hosting engine + EVS + transport passes one shared
	// Observer so its /metrics endpoint shows the whole node.
	Obs *obs.Observer
}

type submitReq struct {
	action types.Action
	ch     chan Reply
	at     time.Time // submission time, for the latency histograms
}

type joinReq struct {
	joiner types.ServerID
	ch     chan joinResp
}

type joinResp struct {
	snap *JoinSnapshot
	err  error
}

type statusReq struct {
	ch chan Status
}

// Metrics counts engine activity since start.
type Metrics struct {
	// Generated counts actions created at this server.
	Generated uint64
	// Applied counts actions this server marked green.
	Applied uint64
	// Exchanges counts state-exchange rounds (one per view change).
	Exchanges uint64
	// Installs counts primary components this server installed.
	Installs uint64
	// Retransmitted counts actions this server re-sent during exchanges.
	Retransmitted uint64
	// Duplicates counts keyed submissions answered from the dedup table
	// instead of being applied a second time.
	Duplicates uint64
	// Overloads counts submissions refused because the in-flight budget
	// was exhausted.
	Overloads uint64
}

// DefaultMaxInFlight is the in-flight action budget used when
// Config.MaxInFlight is zero.
const DefaultMaxInFlight = 4096

// DefaultMaxBatchActions is the batch cap used when Config.MaxBatchActions
// is zero. Large enough to amortize the per-message EVS round and the
// forced write across a burst, small enough to keep a batch well under
// the transport's comfortable datagram size.
const DefaultMaxBatchActions = 64

// Status is a snapshot of the engine's externally observable state.
type Status struct {
	State      State
	Conf       types.Configuration
	GreenCount uint64
	RedCount   int
	WhiteBase  uint64 // greens discarded as white
	Prim       PrimComponent
	Vulnerable bool
	ServerSet  []types.ServerID
	Metrics    Metrics
	// InFlight is the number of client actions currently awaiting an
	// outcome (pending replies plus buffered requests) against the
	// admission budget.
	InFlight int
	// Sessions is the number of clients tracked in the replicated dedup
	// table.
	Sessions int
}

// Engine is one replication server.
type Engine struct {
	id     types.ServerID
	gc     GroupCom
	log    storage.Log
	db     *db.Database
	quo    quorum.System
	syncer *storage.AsyncSyncer
	gen    genQueue // created actions waiting for the sync that covers their records

	submitCh     chan submitReq
	joinCh       chan joinReq
	statusCh     chan statusReq
	leaveCh      chan chan error
	checkpointCh chan chan error

	stopOnce sync.Once
	stop     chan struct{} // closed by Close
	// done is closed when the run loop exits: on Close, or when an
	// injected crash unwinds it. Callers wait on done, not stop, so a
	// call into a crashed engine fails with ErrClosed instead of blocking
	// on a loop that is gone.
	done chan struct{}

	syncHook func(point string) bool

	// Observability state readable from any goroutine — including after
	// the engine stopped or crashed — under its own locks. The run loop
	// is the only writer.
	histMu   sync.Mutex
	history  []types.ActionID // full green order known here (Theorem 1 checks)
	histBase uint64           // greens preceding history[0] (snapshot bootstrap)

	installMu sync.Mutex
	installs  []PrimComponent // every primary component installed here, in order

	watchMu  sync.Mutex
	watchers map[chan struct{}]struct{}

	// Everything below is owned by the run loop (paper Appendix A
	// variables keep their names where practical).
	st           State
	conf         types.Configuration // current regular configuration
	actionIndex  uint64
	attemptIndex uint64
	prim         PrimComponent
	vuln         Vulnerable
	yellow       Yellow
	queue        *actionsQueue
	ongoing      map[types.ActionID]types.Action // created here, not yet delivered (paper ongoingQueue)
	redCut       map[types.ServerID]uint64
	orderedIdx   map[types.ServerID]uint64 // highest green index per creator
	greenKnown   map[types.ServerID]uint64 // paper's greenLines, as counts
	serverSet    map[types.ServerID]bool
	stateMsgs    map[types.ServerID]stateMsg
	cpcFrom      map[types.ServerID]bool
	verdict      verdict                 // decided when this round's state messages are all in
	pendingGreen map[uint64]types.Action // out-of-order green retransmissions
	buffered     []submitReq             // client requests held outside Prim/NonPrim
	pendingReply map[types.ActionID][]chan Reply
	appliedRed   map[types.ActionID]bool // relaxed actions applied eagerly
	// Exactly-once machinery: sessions is the replicated dedup table
	// (driven by green order, see session.go); eagerApplied marks
	// idempotency keys whose relaxed action was applied eagerly while red
	// under a *different* action id (a cross-component retry), so the
	// green copy skips re-application; inflight routes a same-node retry
	// of a not-yet-green action to the original's reply.
	sessions     map[string]*ClientSession
	eagerApplied map[idemKey]bool
	inflight     map[idemKey]types.ActionID
	maxInFlight  int
	maxBatch     int // actions per multicast and per ongoing record (1 = batching disabled)
	// Query fast path (§ 6): strict query-only requests in the primary
	// are answered from the green state once every earlier local action
	// has applied, without generating an ordered action message.
	lastLocalPending types.ActionID
	queryWait        map[types.ActionID][]submitReq
	joinWaiters      map[types.ServerID][]chan joinResp
	pendingJoins     []joinReq
	left             bool
	exchRound        uint64         // state-exchange round within this conf (catch-up restarts it)
	awaitingSnap     bool           // waiting for a § 5.2 catch-up snapshot
	liveBuf          []types.Action // live actions held back during an exchange (see onActionBatch)
	replaying        bool           // suppress logging/replies during recovery
	ioFailed         bool           // stable storage failed; refuse new work
	obs              *obs.Observer
	om               *coreObs
	submitMeta       map[types.ActionID]submitMeta // open latency samples for locally created actions
	exchStart        time.Time                     // when the current exchange round entered ExchangeStates
	// scratch holds buffers that every delivery reuses instead of
	// allocating: markRedBatch's accepted actions, applyGreenBatch's fused
	// run and its keys, and applyGreenRun's positions, payloads and ids.
	scratch struct {
		accepted, run []types.Action
		runKeys       map[idemKey]bool
		seqs          []uint64
		updates       [][]byte
		ids           []types.ActionID
	}
}

// New assembles an engine, optionally recovers it from its log, and
// starts its event loop.
func New(cfg Config) (*Engine, error) {
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Recover {
		if err := e.recover(); err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
	}
	go e.run()
	return e, nil
}

// newEngine builds an engine without starting its loop.
func newEngine(cfg Config) (*Engine, error) {
	if cfg.ID == "" {
		return nil, errors.New("core: config needs an ID")
	}
	if cfg.GC == nil {
		return nil, errors.New("core: config needs a group communication endpoint")
	}
	if cfg.Log == nil {
		return nil, errors.New("core: config needs a stable-storage log")
	}
	if len(cfg.Servers) == 0 {
		return nil, errors.New("core: config needs the initial server set")
	}
	database := cfg.DB
	if database == nil {
		database = db.New()
	}
	quo := cfg.Quorum
	if quo == nil {
		quo = quorum.DynamicLinear{}
	}
	e := &Engine{
		id:           cfg.ID,
		gc:           cfg.GC,
		log:          cfg.Log,
		db:           database,
		quo:          quo,
		submitCh:     make(chan submitReq),
		joinCh:       make(chan joinReq),
		statusCh:     make(chan statusReq),
		leaveCh:      make(chan chan error),
		checkpointCh: make(chan chan error),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		st:           NonPrim,
		queue:        newActionsQueue(),
		ongoing:      make(map[types.ActionID]types.Action),
		redCut:       make(map[types.ServerID]uint64),
		orderedIdx:   make(map[types.ServerID]uint64),
		greenKnown:   make(map[types.ServerID]uint64),
		serverSet:    make(map[types.ServerID]bool),
		pendingGreen: make(map[uint64]types.Action),
		pendingReply: make(map[types.ActionID][]chan Reply),
		appliedRed:   make(map[types.ActionID]bool),
		sessions:     make(map[string]*ClientSession),
		eagerApplied: make(map[idemKey]bool),
		inflight:     make(map[idemKey]types.ActionID),
		queryWait:    make(map[types.ActionID][]submitReq),
		joinWaiters:  make(map[types.ServerID][]chan joinResp),
		watchers:     make(map[chan struct{}]struct{}),
		syncHook:     cfg.SyncHook,
		maxInFlight:  cfg.MaxInFlight,
		obs:          cfg.Obs,
		submitMeta:   make(map[types.ActionID]submitMeta),
	}
	if e.obs == nil {
		e.obs = obs.NewObserver()
	}
	e.om = newCoreObs(e.obs.Reg)
	if e.maxInFlight == 0 {
		e.maxInFlight = DefaultMaxInFlight
	}
	switch {
	case cfg.MaxBatchActions == 0:
		e.maxBatch = DefaultMaxBatchActions
	case cfg.MaxBatchActions < 0:
		e.maxBatch = 1
	default:
		e.maxBatch = cfg.MaxBatchActions
	}
	for _, s := range cfg.Servers {
		e.serverSet[s] = true
	}
	e.syncer = storage.NewAsyncSyncer(e.log)
	// Bootstrap quorum rule: before any primary exists, the component
	// must hold a majority of the full initial set.
	e.prim = PrimComponent{Servers: append([]types.ServerID(nil), cfg.Servers...)}
	return e, nil
}

// DB exposes the underlying database (for registering procedures and for
// examples' direct weak reads).
func (e *Engine) DB() *db.Database { return e.db }

// ID returns the server identifier.
func (e *Engine) ID() types.ServerID { return e.id }

// Close stops the engine loop. It does not close the group communication
// endpoint or the log; the caller owns those.
func (e *Engine) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
	e.syncer.Close()
}

// Submit injects a client action and waits for its reply: for strict
// semantics, when the action turns green; for relaxed semantics, as soon
// as it is applied locally. Blocks across partitions until the action can
// be globally ordered or ctx expires.
func (e *Engine) Submit(ctx context.Context, update []byte, query []byte, sem types.Semantics) (Reply, error) {
	return e.SubmitKeyed(ctx, "", 0, update, query, sem)
}

// SubmitKeyed is Submit with an idempotency key: the engine applies at
// most one green action per (client, seq) pair, so the caller may retry
// the same operation — including through a different replica after a
// failover — and receive the original outcome instead of a second apply.
// An empty client submits unkeyed.
func (e *Engine) SubmitKeyed(ctx context.Context, client string, seq uint64, update []byte, query []byte, sem types.Semantics) (Reply, error) {
	ch, err := e.SubmitKeyedAsync(client, seq, update, query, sem)
	if err != nil {
		return Reply{}, err
	}
	select {
	case r := <-ch:
		return r, nil
	case <-ctx.Done():
		return Reply{}, ctx.Err()
	case <-e.done:
		return Reply{}, ErrClosed
	}
}

// SubmitAsync injects a client action and returns the reply channel.
func (e *Engine) SubmitAsync(update []byte, query []byte, sem types.Semantics) (<-chan Reply, error) {
	return e.SubmitKeyedAsync("", 0, update, query, sem)
}

// SubmitKeyedAsync is SubmitKeyed returning the reply channel.
func (e *Engine) SubmitKeyedAsync(client string, seq uint64, update []byte, query []byte, sem types.Semantics) (<-chan Reply, error) {
	if client != "" && seq == 0 {
		return nil, errors.New("core: keyed submission needs a sequence number >= 1")
	}
	a := types.Action{
		Type:      types.ActionUpdate,
		Semantics: sem,
		Client:    client,
		ClientSeq: seq,
		Update:    update,
		Query:     query,
	}
	if len(update) == 0 && len(query) > 0 {
		a.Type = types.ActionQuery
	}
	req := submitReq{action: a, ch: make(chan Reply, 1), at: time.Now()}
	select {
	case e.submitCh <- req:
		return req.ch, nil
	case <-e.done:
		return nil, ErrClosed
	}
}

// Query reads at the requested consistency level. Strict queries are
// ordered like actions; weak and dirty queries answer immediately from
// local state (paper § 6).
func (e *Engine) Query(ctx context.Context, query []byte, level QueryLevel) (db.Result, error) {
	switch level {
	case QueryWeak:
		return e.db.QueryGreen(query)
	case QueryDirty:
		return e.db.QueryDirty(query)
	default:
		r, err := e.Submit(ctx, nil, query, types.SemStrict)
		if err != nil {
			return db.Result{}, err
		}
		if r.Err != "" {
			return db.Result{}, errors.New(r.Err)
		}
		return r.Result, nil
	}
}

// Checkpoint compacts the engine's log: the current state replaces the
// record history, bounding recovery time and disk usage. Requires a log
// implementing storage.Compactable.
func (e *Engine) Checkpoint(ctx context.Context) error {
	ch := make(chan error, 1)
	select {
	case e.checkpointCh <- ch:
	case <-e.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-ch:
		return err
	case <-e.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// GreenHistory returns the green order recorded by this server and the
// global sequence number of its first entry, consistently snapshotted —
// the input to order-invariant checks (Theorems 1 and 2). Safe to call
// from any goroutine, including after the engine stopped or crashed
// (fault-injection checkers read post-mortem histories).
func (e *Engine) GreenHistory() ([]types.ActionID, uint64) {
	e.histMu.Lock()
	defer e.histMu.Unlock()
	return append([]types.ActionID(nil), e.history...), e.histBase + 1
}

// InstallHistory returns every primary component this server installed,
// in order. Safe to call from any goroutine, including post-mortem.
func (e *Engine) InstallHistory() []PrimComponent {
	e.installMu.Lock()
	defer e.installMu.Unlock()
	out := make([]PrimComponent, len(e.installs))
	for i, p := range e.installs {
		out[i] = PrimComponent{
			PrimIndex:    p.PrimIndex,
			AttemptIndex: p.AttemptIndex,
			Servers:      append([]types.ServerID(nil), p.Servers...),
		}
	}
	return out
}

// recordInstall snapshots an installed primary component (run loop only).
func (e *Engine) recordInstall(p PrimComponent) {
	e.installMu.Lock()
	e.installs = append(e.installs, PrimComponent{
		PrimIndex:    p.PrimIndex,
		AttemptIndex: p.AttemptIndex,
		Servers:      append([]types.ServerID(nil), p.Servers...),
	})
	e.installMu.Unlock()
}

// Watch registers interest in the engine's observable state: the channel
// receives a (coalesced) signal whenever the state machine transitions or
// an action turns green. The returned cancel func releases the watcher.
// Event-driven test waits use this instead of polling.
func (e *Engine) Watch() (<-chan struct{}, func()) {
	ch := make(chan struct{}, 1)
	e.watchMu.Lock()
	e.watchers[ch] = struct{}{}
	e.watchMu.Unlock()
	return ch, func() {
		e.watchMu.Lock()
		delete(e.watchers, ch)
		e.watchMu.Unlock()
	}
}

// notifyWatchers pokes every watcher without blocking.
func (e *Engine) notifyWatchers() {
	e.watchMu.Lock()
	for ch := range e.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	e.watchMu.Unlock()
}

// setState transitions the state machine and wakes watchers.
func (e *Engine) setState(s State) {
	if e.st == s {
		return
	}
	e.obs.Trace.Record(obs.EvState, uint64(e.st), uint64(s), 0)
	e.obs.Log.Info("state transition",
		"server", string(e.id), "conf", e.conf.ID, "from", e.st.String(), "state", s.String())
	e.st = s
	e.om.gState.Set(int64(s))
	e.notifyWatchers()
}

// Status reports the engine's current state (tests and tooling).
func (e *Engine) Status() Status {
	req := statusReq{ch: make(chan Status, 1)}
	select {
	case e.statusCh <- req:
		return <-req.ch
	case <-e.done:
		return Status{}
	}
}

// RequestJoin admits a new replica: this server acts as its
// representative, creating a PERSISTENT_JOIN action; when the action
// turns green here, the returned snapshot captures the state the joiner
// must restore before running (paper § 5.1). Blocks until then.
func (e *Engine) RequestJoin(ctx context.Context, joiner types.ServerID) (*JoinSnapshot, error) {
	req := joinReq{joiner: joiner, ch: make(chan joinResp, 1)}
	select {
	case e.joinCh <- req:
	case <-e.done:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	select {
	case resp := <-req.ch:
		return resp.snap, resp.err
	case <-e.done:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Leave permanently removes this server from the replica set by ordering
// a PERSISTENT_LEAVE action. The call returns once the request is issued.
func (e *Engine) Leave(ctx context.Context) error {
	ch := make(chan error, 1)
	select {
	case e.leaveCh <- ch:
	case <-e.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-ch:
		return err
	case <-e.done:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the engine event loop: one goroutine owns all protocol state.
func (e *Engine) run() {
	defer close(e.done)
	defer func() {
		// An injected crash at a sync barrier unwinds the loop mid-handler
		// via a sentinel panic: the engine dies exactly at the barrier, as
		// a power failure would. Anything else is a real bug.
		if r := recover(); r != nil && r != errCrashPoint {
			panic(r)
		}
	}()
	events := e.gc.Events()
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				return
			}
			e.handleEvent(ev)
		case req := <-e.submitCh:
			e.handleSubmitBatch(e.collectSubmits(req))
		case req := <-e.joinCh:
			e.handleJoinRequest(req)
		case ch := <-e.leaveCh:
			e.handleLeave(ch)
		case req := <-e.statusCh:
			req.ch <- e.statusLocked()
		case ch := <-e.checkpointCh:
			ch <- e.checkpoint()
		case <-e.stop:
			return
		}
		// Publish run-loop-owned counts to the registry after every event,
		// so /metrics — served from other goroutines — stays current.
		e.syncGauges()
	}
}

func (e *Engine) statusLocked() Status {
	set := make([]types.ServerID, 0, len(e.serverSet))
	for s := range e.serverSet {
		set = append(set, s)
	}
	types.SortServerIDs(set)
	return Status{
		State:      e.st,
		Conf:       e.conf.Clone(),
		GreenCount: e.queue.greenCount(),
		RedCount:   e.queue.redCount(),
		WhiteBase:  e.queue.base,
		Prim:       e.prim,
		Vulnerable: e.vuln.Status,
		ServerSet:  set,
		Metrics:    e.metricsSnapshot(),
		InFlight:   len(e.pendingReply) + len(e.buffered),
		Sessions:   len(e.sessions),
	}
}

func (e *Engine) handleEvent(ev evs.Event) {
	switch t := ev.(type) {
	case evs.ViewChange:
		if t.Config.Transitional {
			e.onTransConf(t.Config)
		} else {
			e.onRegConf(t.Config)
		}
	case evs.Delivery:
		m, err := decodeEngineMsg(t.Payload)
		if err != nil {
			return // foreign traffic on the group; ignore
		}
		switch m.Kind {
		case emBatch:
			e.onActionBatch(m.Batch)
		case emState:
			if m.State != nil {
				e.onStateMsg(*m.State)
			}
		case emCPC:
			if m.CPC != nil {
				e.onCPC(*m.CPC)
			}
		case emRetrans:
			if m.Retrans != nil {
				e.onRetrans(*m.Retrans)
			}
		case emSnapshot:
			if m.Snap != nil {
				e.onSnapshot(*m.Snap)
			}
		}
	}
}

// generateBatch multicasts a bundle of n >= 1 actions with Safe delivery
// (paper "generate action"): one Safe multicast — one position in the
// total order — for the whole bundle.
func (e *Engine) generateBatch(acts []types.Action) {
	_ = multicastMsg(e.gc, engineMsg{Kind: emBatch, Batch: acts})
}

// genQueue holds locally created actions from their ongoing record's
// append until the sync that makes it durable (group commit without a
// linger timer). The run loop pushes in action-index order; flush takes
// from the front. taken counts every action ever taken, so taken +
// len(acts) is a monotonic count of pushes that a flush can be bounded by.
type genQueue struct {
	mu    sync.Mutex
	acts  []types.Action
	taken uint64
}

// enqueueGenerate queues actions whose ongoing record the loop has just
// appended, and schedules a flush of everything pushed so far behind the
// next sync. The "gen" tag coalesces: when one sync covers several
// pushes, only the newest flush runs, and it multicasts all of them.
func (e *Engine) enqueueGenerate(acts []types.Action) {
	e.gen.mu.Lock()
	e.gen.acts = append(e.gen.acts, acts...)
	upTo := e.gen.taken + uint64(len(e.gen.acts))
	e.gen.mu.Unlock()
	e.syncer.AfterTagged("gen", func() { e.flush(upTo) })
}

// generateSynced multicasts a after a synchronous barrier (syncLog) made
// its record, and every record queued before it, durable: the queue is
// flushed first so the creator's actions still go out in index order.
// Run loop only.
func (e *Engine) generateSynced(a types.Action) {
	e.gen.mu.Lock()
	e.gen.acts = append(e.gen.acts, a)
	e.gen.mu.Unlock()
	e.flush(math.MaxUint64)
}

// flush multicasts the queued actions among the first upTo pushes, in
// index order and in bundles of at most MaxBatchActions; actions pushed
// later wait for the flush behind their own sync. It runs on the sync
// writer, and holds the queue lock while multicasting so two flushes (or
// a flush and regenerateOngoing) never reorder one creator's actions.
func (e *Engine) flush(upTo uint64) {
	e.gen.mu.Lock()
	defer e.gen.mu.Unlock()
	n := 0
	if upTo > e.gen.taken {
		n = int(min(upTo-e.gen.taken, uint64(len(e.gen.acts))))
	}
	for acts := e.gen.acts[:n]; len(acts) > 0; {
		k := min(e.maxBatch, len(acts))
		e.generateBatch(acts[:k])
		e.noteFlush(k)
		acts = acts[k:]
	}
	e.gen.taken += uint64(n)
	rest := copy(e.gen.acts, e.gen.acts[n:])
	clear(e.gen.acts[rest:])
	e.gen.acts = e.gen.acts[:rest]
}

// noteFlush counts one multicast of k queued actions. It is not traced:
// one event per multicast would push the state-machine events out of the
// ring.
func (e *Engine) noteFlush(k int) {
	if k >= e.maxBatch {
		e.om.flushFull.Inc()
	} else {
		e.om.flushDrain.Inc()
	}
	e.om.batchSize.Observe(float64(k))
}

// collectSubmits assembles a submission batch around the request that
// woke the loop from whatever else is already queued, without waiting:
// requests arriving while the previous sync is in flight pile up here,
// so the batch grows with the forced-write latency on its own. The cap
// bounds one ongoing record.
func (e *Engine) collectSubmits(first submitReq) []submitReq {
	reqs := []submitReq{first}
	for len(reqs) < e.maxBatch {
		select {
		case req := <-e.submitCh:
			reqs = append(reqs, req)
			continue
		default:
		}
		break
	}
	return reqs
}

// handleSubmitBatch runs admission for each collected submission in
// order, then logs every action the batch created in ONE WAL append and
// queues them for the multicast behind the sync covering it: the
// per-action forced write and EVS round — the two dominant costs of the
// submit path — amortize over the batch, while dedup, admission control,
// and the query fast path keep their exact sequential semantics.
func (e *Engine) handleSubmitBatch(reqs []submitReq) {
	var acts []types.Action
	for _, req := range reqs {
		if a, created := e.admitSubmit(req); created {
			acts = append(acts, a)
		}
	}
	if len(acts) == 0 {
		return
	}
	e.appendLog(logRecord{Kind: recOngoingBatch, Actions: acts})
	e.enqueueGenerate(acts)
}

// admitSubmit vets one submission — dedup, admission control, the § 6
// query fast path, buffering outside Prim/NonPrim — and creates an
// action for it when one is due. The caller owns logging and multicast.
func (e *Engine) admitSubmit(req submitReq) (types.Action, bool) {
	if e.left {
		req.ch <- Reply{Err: ErrLeft.Error(), Retryable: true}
		return types.Action{}, false
	}
	if e.ioFailed {
		req.ch <- Reply{Err: "core: stable storage failed; refusing new actions", Retryable: true}
		return types.Action{}, false
	}
	if req.action.Client != "" {
		// Fast-path dedup: an already ordered (client, seq) answers from
		// the replicated session table; a retry of an action this server
		// generated but has not seen green yet attaches to the original's
		// pending reply instead of generating a second action.
		kind, ent := e.dedupLookup(req.action.Client, req.action.ClientSeq)
		if kind != dedupFresh {
			e.om.duplicates.Inc()
			e.obs.Trace.Record(obs.EvDedupHit, 1, 0, 0)
			req.ch <- dedupReply(kind, ent)
			return types.Action{}, false
		}
		if id, ok := e.inflight[idemKey{req.action.Client, req.action.ClientSeq}]; ok {
			if _, pending := e.pendingReply[id]; pending {
				e.om.duplicates.Inc()
				e.obs.Trace.Record(obs.EvDedupHit, 2, 0, 0)
				e.pendingReply[id] = append(e.pendingReply[id], req.ch)
				return types.Action{}, false
			}
		}
	}
	if e.maxInFlight > 0 && len(e.pendingReply)+len(e.buffered) >= e.maxInFlight {
		e.om.overloads.Inc()
		e.obs.Trace.Record(obs.EvAdmissionReject, uint64(len(e.pendingReply)+len(e.buffered)), 0, 0)
		req.ch <- Reply{Err: ErrOverloaded.Error(), Retryable: true}
		return types.Action{}, false
	}
	// § 6 query optimization: a strict query-only request in the primary
	// component needs no ordered action message — it is answered from the
	// consistent green state as soon as every earlier action generated at
	// this server has applied.
	if e.st == RegPrim && req.action.Type == types.ActionQuery &&
		req.action.Semantics == types.SemStrict && len(req.action.Update) == 0 {
		if e.lastLocalPending.Zero() {
			e.answerQuery(req)
		} else {
			e.queryWait[e.lastLocalPending] = append(e.queryWait[e.lastLocalPending], req)
		}
		return types.Action{}, false
	}
	switch e.st {
	case RegPrim, NonPrim:
		return e.createAction(req), true
	default:
		e.buffered = append(e.buffered, req)
		return types.Action{}, false
	}
}

// answerQuery runs a query-only request against the green state.
func (e *Engine) answerQuery(req submitReq) {
	r := Reply{GreenSeq: e.queue.greenCount()}
	if res, err := e.db.QueryGreen(req.action.Query); err == nil {
		r.Result = res
	} else {
		r.Err = err.Error()
	}
	if !req.at.IsZero() {
		e.om.latency[types.SemStrict].ObserveDuration(time.Since(req.at))
	}
	req.ch <- r
}

// createAction assigns the next action index and enters the action into
// the ongoing queue and reply/inflight routing. The caller owns the WAL
// append (possibly shared with other actions of a batch) and the
// multicast.
func (e *Engine) createAction(req submitReq) types.Action {
	e.actionIndex++
	a := req.action
	a.ID = types.ActionID{Server: e.id, Index: e.actionIndex}
	a.GreenLine = e.queue.greenCount()
	e.ongoing[a.ID] = a
	e.om.generated.Inc()
	if !req.at.IsZero() {
		e.submitMeta[a.ID] = submitMeta{at: req.at, sem: a.Semantics}
	}
	e.trackInflight(a, req.ch)
	e.lastLocalPending = a.ID
	return a
}

// handleBuffered drains requests buffered during exchange and
// construction (paper Handle_buff_requests): one forced write covers the
// batch, and flush multicasts it in MaxBatchActions-sized bundles.
func (e *Engine) handleBuffered() {
	if len(e.buffered) == 0 {
		return
	}
	batch := e.buffered
	e.buffered = nil
	acts := make([]types.Action, 0, len(batch))
	for _, req := range batch {
		acts = append(acts, e.createAction(req))
	}
	e.appendLog(logRecord{Kind: recOngoingBatch, Actions: acts})
	e.enqueueGenerate(acts)
}

// reply delivers the outcome to every locally pending waiter — the
// original submitter plus any same-node retries that attached while the
// action was in flight.
func (e *Engine) reply(id types.ActionID, r Reply) {
	chans, ok := e.pendingReply[id]
	if !ok {
		return
	}
	if r.Err == "" {
		e.observeLatency(id)
	} else {
		e.dropLatency(id)
	}
	delete(e.pendingReply, id)
	for _, ch := range chans {
		ch <- r
	}
}
