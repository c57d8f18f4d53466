package core

import (
	"time"

	"evsdb/internal/obs"
	"evsdb/internal/types"
)

func init() {
	// Teach the obs tracer to render core.State operands by name.
	obs.StateName = func(s uint64) string { return State(s).String() }
}

// submitMeta remembers, per locally created action, what the latency
// histogram needs at reply time: when the client submitted and under
// which semantics class.
type submitMeta struct {
	at  time.Time
	sem types.Semantics
}

// coreObs holds every engine metric pre-registered against the shared
// registry, so the run loop's hot path touches only atomics — no label
// rendering, no map lookups through the registry lock.
type coreObs struct {
	generated     *obs.Counter
	applied       *obs.Counter
	exchanges     *obs.Counter
	installs      *obs.Counter
	retransmitted *obs.Counter
	duplicates    *obs.Counter
	overloads     *obs.Counter

	latency    [3]*obs.Histogram // indexed by types.Semantics
	batchSize  *obs.Histogram
	exchDur    *obs.Histogram
	applyStall *obs.Histogram

	flushFull  *obs.Counter
	flushDrain *obs.Counter

	walSync map[string]*obs.Counter

	gState     *obs.Gauge
	gGreen     *obs.Gauge
	gRed       *obs.Gauge
	gWhite     *obs.Gauge
	gInFlight  *obs.Gauge
	gSessions  *obs.Gauge
	gVulnProbe *obs.Gauge
}

func newCoreObs(r *obs.Registry) *coreObs {
	m := &coreObs{
		generated:     r.Counter("evsdb_actions_generated_total", "Actions created at this server."),
		applied:       r.Counter("evsdb_actions_applied_total", "Actions this server marked green."),
		exchanges:     r.Counter("evsdb_exchanges_total", "State-exchange rounds (one per view change)."),
		installs:      r.Counter("evsdb_primaries_installed_total", "Primary components installed by this server."),
		retransmitted: r.Counter("evsdb_actions_retransmitted_total", "Actions re-sent during state exchanges."),
		duplicates:    r.Counter("evsdb_dedup_hits_total", "Keyed submissions answered from the dedup table or an in-flight action."),
		overloads:     r.Counter("evsdb_admission_rejects_total", "Submissions refused because the in-flight budget was exhausted."),
		batchSize:     r.Histogram("evsdb_batch_actions", "Locally created actions per multicast after their sync.", obs.SizeBuckets),
		exchDur:       r.Histogram("evsdb_exchange_round_seconds", "State-exchange round duration, ExchangeStates entry to quorum decision.", nil),
		applyStall:    r.Histogram("evsdb_apply_stall_seconds", "Wall time the engine loop stalls in one green apply batch.", nil),
		flushFull:     r.Counter("evsdb_batch_flush_total", "Multicasts of synced actions by reason: full (MaxBatchActions) or drain (all that one sync covered).", obs.L("reason", "full")),
		flushDrain:    r.Counter("evsdb_batch_flush_total", "Multicasts of synced actions by reason: full (MaxBatchActions) or drain (all that one sync covered).", obs.L("reason", "drain")),
		walSync:       make(map[string]*obs.Counter),
		gState:        r.Gauge("evsdb_engine_state", "Engine state-machine state (1=NonPrim ... 8=Un, paper Fig. 4)."),
		gGreen:        r.Gauge("evsdb_actions_green", "Actions in the globally agreed green order."),
		gRed:          r.Gauge("evsdb_actions_red", "Actions ordered locally but not yet green."),
		gWhite:        r.Gauge("evsdb_actions_white", "Green actions discarded as white (known green everywhere)."),
		gInFlight:     r.Gauge("evsdb_actions_inflight", "Client actions awaiting an outcome against the admission budget."),
		gSessions:     r.Gauge("evsdb_dedup_sessions", "Clients tracked in the replicated dedup table."),
		gVulnProbe:    r.Gauge("evsdb_vulnerable", "1 while the vulnerable flag is held on stable storage."),
	}
	for i, class := range []string{"strict", "commutative", "timestamp"} {
		m.latency[i] = r.Histogram("evsdb_action_latency_seconds",
			"Submit-to-reply latency by semantics class.", nil, obs.L("class", class))
	}
	for _, p := range []string{"exchange-states", "construct", "nonprim", "install", "catch-up"} {
		m.walSync[p] = r.Counter("evsdb_wal_syncs_total", "Forced log syncs at protocol barriers.", obs.L("point", p))
	}
	return m
}

// observeLatency closes out the latency sample for a locally created
// action, if one is open. Run loop only.
func (e *Engine) observeLatency(id types.ActionID) {
	meta, ok := e.submitMeta[id]
	if !ok {
		return
	}
	delete(e.submitMeta, id)
	sem := meta.sem
	if sem < 0 || int(sem) >= len(e.om.latency) {
		sem = types.SemStrict
	}
	e.om.latency[sem].ObserveDuration(time.Since(meta.at))
}

// dropLatency abandons the latency sample without observing it (error
// replies, departed replicas). Run loop only.
func (e *Engine) dropLatency(id types.ActionID) {
	delete(e.submitMeta, id)
}

// syncGauges publishes run-loop-owned counts to the registry's gauges;
// called once per event-loop iteration so /metrics — served from other
// goroutines — always reads a recent consistent snapshot.
func (e *Engine) syncGauges() {
	e.om.gState.Set(int64(e.st))
	e.om.gGreen.Set(int64(e.queue.greenCount()))
	e.om.gRed.Set(int64(e.queue.redCount()))
	e.om.gWhite.Set(int64(e.queue.base))
	e.om.gInFlight.Set(int64(len(e.pendingReply) + len(e.buffered)))
	e.om.gSessions.Set(int64(len(e.sessions)))
	vuln := int64(0)
	if e.vuln.Status {
		vuln = 1
	}
	e.om.gVulnProbe.Set(vuln)
}

// metricsSnapshot reconstructs the public Metrics struct from the
// registry-backed counters — the single source /status and /metrics
// share, so the two can never disagree.
func (e *Engine) metricsSnapshot() Metrics {
	return Metrics{
		Generated:     e.om.generated.Value(),
		Applied:       e.om.applied.Value(),
		Exchanges:     e.om.exchanges.Value(),
		Installs:      e.om.installs.Value(),
		Retransmitted: e.om.retransmitted.Value(),
		Duplicates:    e.om.duplicates.Value(),
		Overloads:     e.om.overloads.Value(),
	}
}

// Observer exposes the engine's observability bundle: its metrics
// registry, event tracer and logger. Never nil.
func (e *Engine) Observer() *obs.Observer { return e.obs }
