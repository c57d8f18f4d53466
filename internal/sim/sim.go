package sim

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"evsdb/internal/cluster"
	"evsdb/internal/core"
	"evsdb/internal/db"
	"evsdb/internal/obs"
	"evsdb/internal/storage"
	"evsdb/internal/transport/memnet"
	"evsdb/internal/types"
)

// Options tunes a simulation run.
type Options struct {
	// ConvergeTimeout bounds the final heal-and-converge phase.
	// Zero means 30s.
	ConvergeTimeout time.Duration
	// StepPause is the pacing delay after every step, letting protocol
	// activity interleave with the next fault. Zero means 2ms.
	StepPause time.Duration
	// Logf, when set, receives a narrative of the run (use t.Logf).
	Logf func(format string, args ...any)

	// stepBudget is each schedule step's share of the run's deadline
	// (see Run); zero means 1s, stretched like every other timing under
	// the race detector.
	stepBudget time.Duration
	// beforeStep, when set, runs before schedule step i (tests use it to
	// block a step).
	beforeStep func(i int)
}

// Result reports one run.
type Result struct {
	Seed int64
	// Err is the first invariant violation or liveness failure; nil for a
	// clean run. The message always embeds the seed.
	Err error
	// Executed counts schedule steps actually applied (inapplicable
	// steps are skipped, see Step).
	Executed int
	// Report is a post-mortem state dump (per-replica status, green
	// history tails, install histories), filled on failure.
	Report string
}

// Failed reports whether the run violated an invariant.
func (r *Result) Failed() bool { return r.Err != nil }

// submitAttempt is one transmission of a submission: the original or a
// retry, each with its own reply channel and origin node.
type submitAttempt struct {
	origin types.ServerID
	ch     <-chan core.Reply
}

// pendingSubmit tracks one logical client operation across all its
// attempts. Every attempt reuses the same idempotency key (client, seq)
// and the same update — a Set of the payload plus a strict counter
// increment on "ctr:"+key whose final value exposes any double apply.
type pendingSubmit struct {
	key      string
	val      string
	client   string
	seq      uint64
	update   []byte
	attempts []submitAttempt
}

type runner struct {
	sched *Schedule
	opts  Options
	c     *cluster.Cluster
	chk   *checker
	ids   []types.ServerID
	up    map[types.ServerID]bool

	mu    sync.Mutex
	armed map[types.ServerID]string
	fired []types.ServerID

	subs []*pendingSubmit
	nsub int

	abort chan struct{} // closed, under logMu, when Run gave up on the deadline
	logMu sync.Mutex
}

// simClient is the idempotency-key client id used by every scheduled
// submission; sequence numbers distinguish operations.
const simClient = "sim"

// Run executes one schedule and checks every invariant. It is safe to
// run multiple schedules concurrently (each gets its own cluster).
//
// The whole run has a deadline: ConvergeTimeout for the initial primary,
// ConvergeTimeout for the final convergence, and a per-step budget for
// each schedule step. A run that passes it — a cluster call that never
// returns, a wedged engine loop that never answers — fails with every
// goroutine's stack and each replica's recent events in its Report,
// instead of hanging the caller; its goroutine is abandoned.
func Run(sched *Schedule, opts Options) *Result {
	// Timing scale: race-instrumented builds run 5-20x slower on the same
	// host, so the native tick rates overdrive the event loops — datagram
	// production outpaces consumption and queueing delay (not the
	// scheduled faults) dominates the run. Stretching all protocol timing
	// by one factor preserves the shape of every schedule while keeping
	// the load inside the host's capacity.
	scale := time.Duration(1)
	if raceEnabled {
		scale = 5
	}
	if opts.ConvergeTimeout == 0 {
		opts.ConvergeTimeout = 30 * time.Second
		if raceEnabled {
			// Proportional liveness budget, so starvation is not reported
			// as a convergence failure.
			opts.ConvergeTimeout = 120 * time.Second
		}
	}
	if opts.StepPause == 0 {
		opts.StepPause = scale * 2 * time.Millisecond
	}
	if opts.stepBudget == 0 {
		opts.stepBudget = scale * time.Second
	}
	r := &runner{
		sched: sched,
		opts:  opts,
		up:    make(map[types.ServerID]bool),
		armed: make(map[types.ServerID]string),
		abort: make(chan struct{}),
	}
	// A run abandoned at its deadline may still wake up; it must not log
	// to a caller (say, a finished test's t.Logf) that has moved on.
	r.opts.Logf = func(format string, args ...any) {
		r.logMu.Lock()
		defer r.logMu.Unlock()
		select {
		case <-r.abort:
		default:
			if opts.Logf != nil {
				opts.Logf(format, args...)
			}
		}
	}
	for i := 0; i < sched.Nodes; i++ {
		id := cluster.ServerID(i)
		r.ids = append(r.ids, id)
		r.up[id] = true
	}
	r.chk = newChecker(r.ids)

	res := &Result{Seed: sched.Seed}
	c, err := cluster.New(sched.Nodes,
		cluster.WithCrashHook(r.hook),
		cluster.WithSyncPolicy(storage.SyncForced),
		cluster.WithEVSTick(scale*200*time.Microsecond),
		cluster.WithNetwork(
			memnet.WithLatency(scale*50*time.Microsecond),
			memnet.WithJitter(scale*300*time.Microsecond),
			memnet.WithSeed(sched.Seed),
		),
	)
	if err != nil {
		res.Err = r.seeded(fmt.Errorf("cluster: %w", err))
		return res
	}
	r.c = c

	done := make(chan struct{})
	go func() {
		defer close(done)
		defer c.Close()
		r.run(res)
	}()
	limit := 2*opts.ConvergeTimeout + time.Duration(len(sched.Steps))*opts.stepBudget
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case <-done:
		return res
	case <-timer.C:
		r.logMu.Lock()
		close(r.abort)
		r.logMu.Unlock()
		return &Result{
			Seed:   sched.Seed,
			Err:    r.seeded(fmt.Errorf("run still going after its %v deadline", limit)),
			Report: r.stuckReport(),
		}
	}
}

// run is Run's body, on its own goroutine: the initial primary, the
// schedule, the finale. It fills res, which Run returns unless the
// deadline passed first; after that (abort closed) it stops at the next
// step.
func (r *runner) run(res *Result) {
	if err := r.c.WaitPrimary(r.opts.ConvergeTimeout, r.ids...); err != nil {
		res.Err = r.seeded(fmt.Errorf("initial primary never formed: %w", err))
		return
	}

	for i, st := range r.sched.Steps {
		select {
		case <-r.abort:
			return
		default:
		}
		if r.opts.beforeStep != nil {
			r.opts.beforeStep(i)
		}
		r.drainFired()
		if r.apply(st) {
			res.Executed++
			r.opts.Logf("sim seed=%d step %d: %s", r.sched.Seed, i, st)
		}
		if err := r.chk.firstErr(); err != nil {
			res.Err = r.seeded(err)
			res.Report = r.dump()
			return
		}
		time.Sleep(r.opts.StepPause)
	}

	if err := r.finale(); err != nil {
		res.Err = r.seeded(err)
		res.Report = r.dump()
	}
}

// stuckReport is the post-mortem of a run that missed its deadline: every
// goroutine's stack, which says what the run was blocked on, and each
// replica's recent events. It reads only the event traces (atomics), as
// any other probe could block on whatever the run is stuck in.
func (r *runner) stuckReport() string {
	var b strings.Builder
	for _, id := range r.ids {
		rep := r.c.Replica(id)
		if rep == nil {
			fmt.Fprintf(&b, "%s: down\n", id)
			continue
		}
		evs := rep.Obs.Trace.Events(traceTail)
		fmt.Fprintf(&b, "%s: last %d events:\n", id, len(evs))
		for _, ev := range evs {
			fmt.Fprintf(&b, "%s:   %s\n", id, ev)
		}
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(&b, "goroutines:\n%s\n", buf)
	return b.String()
}

// traceTail is how many trailing state-machine events each replica
// contributes to a failure report.
const traceTail = 30

// dump renders a post-mortem of every replica for failure reports. It
// reads only post-mortem-safe state (green/install histories and the
// log), not Status, so it works for crashed replicas too.
func (r *runner) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "net: components=%v stats=%+v\n", r.c.Net.Components(), r.c.Net.Stats())
	for _, id := range r.ids {
		rep := r.c.Replica(id)
		if rep == nil {
			fmt.Fprintf(&b, "%s: down\n", id)
			continue
		}
		hist, firstAt := rep.Engine.GreenHistory()
		fmt.Fprintf(&b, "%s: up=%v greens [%d..%d]:", id, r.up[id], firstAt, firstAt+uint64(len(hist))-1)
		lo := 0
		if len(hist) > 12 {
			lo = len(hist) - 12
			fmt.Fprintf(&b, " ...")
		}
		for _, a := range hist[lo:] {
			fmt.Fprintf(&b, " %s", a)
		}
		fmt.Fprintf(&b, "\n%s: installs:", id)
		for _, p := range rep.Engine.InstallHistory() {
			fmt.Fprintf(&b, " %d/%d%v", p.PrimIndex, p.AttemptIndex, p.Servers)
		}
		fmt.Fprintf(&b, "\n%s: status: %s\n", id, probeStatus(rep.Engine))
		fmt.Fprintf(&b, "%s: evs: %s\n", id, rep.GC.Debug())
		// The event trace reads only atomics, so it is safe even when the
		// engine loop itself is wedged — often the only record of how the
		// node got there.
		if evs := rep.Obs.Trace.Events(traceTail); len(evs) > 0 {
			fmt.Fprintf(&b, "%s: last %d events:\n", id, len(evs))
			for _, ev := range evs {
				fmt.Fprintf(&b, "%s:   %s\n", id, ev)
			}
		}
	}
	// A second EVS snapshot a beat later distinguishes a live-but-stuck
	// protocol (tick counter advances) from a wedged node loop (frozen).
	time.Sleep(200 * time.Millisecond)
	for _, id := range r.ids {
		if rep := r.c.Replica(id); rep != nil {
			fmt.Fprintf(&b, "%s: evs+200ms: %s\n", id, rep.GC.Debug())
		}
	}
	return b.String()
}

// probeStatus asks a possibly-wedged engine for its status; a healthy
// (or cleanly closed) engine answers immediately, a wedged engine loop
// never does, so the probe gives up after a short wait instead of
// hanging the post-mortem.
func probeStatus(eng *core.Engine) string {
	ch := make(chan core.Status, 1)
	go func() { ch <- eng.Status() }()
	select {
	case st := <-ch:
		return fmt.Sprintf("state=%s conf=%v prim=%d/%d%v vuln=%v greens=%d reds=%d",
			st.State, st.Conf.Members, st.Prim.PrimIndex, st.Prim.AttemptIndex,
			st.Prim.Servers, st.Vulnerable, st.GreenCount, st.RedCount)
	case <-time.After(2 * time.Second):
		return "WEDGED: engine loop did not answer a status probe within 2s"
	}
}

// seeded wraps a failure so every report carries the replay seed.
func (r *runner) seeded(err error) error {
	if r.sched.Relaxed {
		return fmt.Errorf("seed %d: %w (replay: go test ./internal/sim -run 'TestSimRelaxedCorpus/seed=%d$')",
			r.sched.Seed, err, r.sched.Seed)
	}
	flag := ""
	if r.sched.Retry {
		flag = " -retry"
	}
	if r.sched.Batch {
		flag = " -batch"
	}
	return fmt.Errorf("seed %d: %w (replay: go run ./cmd/evssim%s -seed %d)", r.sched.Seed, err, flag, r.sched.Seed)
}

// hook runs on an engine goroutine at each sync barrier: an armed,
// rule-allowed crash fires here, exactly at the barrier. The whole
// decision happens under r.mu: if any part of arm-check/crash-rule/fired
// were outside it, a concurrent disarm (StepRecover, finale) could slip
// between check and commit — the engine would die but the runner would
// never learn, and the finale would wait on a dead replica forever.
func (r *runner) hook(id types.ServerID, point string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	want, ok := r.armed[id]
	if !ok || (want != "*" && want != point) {
		return false
	}
	delete(r.armed, id)
	if !r.chk.allowCrash(r.c, id) {
		return false
	}
	r.fired = append(r.fired, id)
	r.opts.Logf("sim seed=%d: %s crashed at barrier %q", r.sched.Seed, id, point)
	return true
}

// drainFired finishes the teardown of hook-crashed replicas: the engine
// already halted and the endpoint dropped at the barrier; here the GC
// stack closes and the unsynced log tail is discarded.
func (r *runner) drainFired() {
	r.mu.Lock()
	fired := r.fired
	r.fired = nil
	r.mu.Unlock()
	for _, id := range fired {
		r.c.Crash(id)
		r.up[id] = false
	}
}

// apply executes one step; false means it was inapplicable and skipped.
func (r *runner) apply(st Step) bool {
	switch st.Kind {
	case StepSubmit:
		return r.submitOne(st.Node)
	case StepSubmitBurst:
		// Back-to-back submissions with no pacing: they race into the
		// engine's batch collection window and travel as bundles.
		ok := false
		for i := 0; i < max(st.Count, 1); i++ {
			if r.submitOne(st.Node) {
				ok = true
			}
		}
		return ok
	case StepRetry:
		if len(r.subs) == 0 {
			return false
		}
		sub := r.subs[st.Sub%len(r.subs)]
		id := r.pickAlive(st.Node)
		if id == "" {
			return false
		}
		rep := r.c.Replica(id)
		if rep == nil {
			return false
		}
		ch, err := rep.Engine.SubmitKeyedAsync(sub.client, sub.seq, sub.update, nil, r.semantics())
		if err != nil {
			return false
		}
		sub.attempts = append(sub.attempts, submitAttempt{origin: id, ch: ch})
		return true
	case StepPartition:
		groups := make([][]types.ServerID, 0, len(st.Groups))
		for _, grp := range st.Groups {
			ids := make([]types.ServerID, 0, len(grp))
			for _, n := range grp {
				if n >= 0 && n < len(r.ids) {
					ids = append(ids, r.ids[n])
				}
			}
			if len(ids) > 0 {
				groups = append(groups, ids)
			}
		}
		if len(groups) == 0 {
			return false
		}
		r.c.Partition(groups...)
		return true
	case StepHeal:
		r.c.Heal()
		return true
	case StepCrash:
		if st.Node < 0 || st.Node >= len(r.ids) {
			return false
		}
		id := r.ids[st.Node]
		if !r.up[id] {
			return false
		}
		if !r.chk.allowCrash(r.c, id) {
			r.opts.Logf("sim seed=%d: crash of %s refused (would erase green knowledge)", r.sched.Seed, id)
			return false
		}
		r.c.Crash(id)
		r.up[id] = false
		return true
	case StepCrashAt:
		if st.Node < 0 || st.Node >= len(r.ids) {
			return false
		}
		id := r.ids[st.Node]
		if !r.up[id] {
			return false
		}
		r.mu.Lock()
		r.armed[id] = st.Point
		r.mu.Unlock()
		return true
	case StepRecover:
		if st.Node < 0 || st.Node >= len(r.ids) {
			return false
		}
		id := r.ids[st.Node]
		r.mu.Lock()
		_, wasArmed := r.armed[id]
		delete(r.armed, id) // an armed-but-unfired crash is cancelled
		r.mu.Unlock()
		if r.up[id] {
			return wasArmed
		}
		if _, err := r.c.Recover(id); err != nil {
			r.opts.Logf("sim seed=%d: recover %s failed: %v", r.sched.Seed, id, err)
			return false
		}
		r.up[id] = true
		return true
	case StepSettle:
		time.Sleep(time.Duration(st.Ms) * time.Millisecond)
		return true
	}
	return false
}

// submitOne fires one uniquely keyed submission through the preferred
// node (shared by StepSubmit and StepSubmitBurst).
func (r *runner) submitOne(node int) bool {
	id := r.pickAlive(node)
	if id == "" {
		return false
	}
	rep := r.c.Replica(id)
	if rep == nil {
		return false
	}
	r.nsub++
	key := fmt.Sprintf("k%04d", r.nsub)
	val := fmt.Sprintf("v%d-%d", r.sched.Seed, r.nsub)
	sub := &pendingSubmit{
		key: key, val: val,
		client: simClient, seq: uint64(r.nsub),
		update: db.EncodeUpdate(db.Set(key, val), db.Add("ctr:"+key, 1)),
	}
	ch, err := rep.Engine.SubmitKeyedAsync(sub.client, sub.seq, sub.update, nil, r.semantics())
	if err != nil {
		return false
	}
	sub.attempts = append(sub.attempts, submitAttempt{origin: id, ch: ch})
	r.subs = append(r.subs, sub)
	return true
}

// semantics is the class every write of the schedule is submitted with.
func (r *runner) semantics() types.Semantics {
	if r.sched.Relaxed {
		return types.SemCommutative
	}
	return types.SemStrict
}

// pickAlive returns the preferred node if alive, else the first alive
// node (deterministic), else "".
func (r *runner) pickAlive(n int) types.ServerID {
	if n >= 0 && n < len(r.ids) && r.up[r.ids[n]] {
		return r.ids[n]
	}
	for _, id := range r.ids {
		if r.up[id] {
			return id
		}
	}
	return ""
}

// finale heals everything, recovers every crashed node, waits for the
// cluster to converge, and runs the full invariant battery.
func (r *runner) finale() error {
	// Disarm leftover barrier crashes, then flush any that fired.
	r.mu.Lock()
	r.armed = make(map[types.ServerID]string)
	r.mu.Unlock()
	r.drainFired()

	r.c.Heal()
	for _, id := range r.ids {
		if !r.up[id] {
			if _, err := r.c.Recover(id); err != nil {
				return fmt.Errorf("final recover %s: %w", id, err)
			}
			r.up[id] = true
		}
	}
	deadline := time.Now().Add(r.opts.ConvergeTimeout)
	if err := r.c.WaitPrimary(time.Until(deadline), r.ids...); err != nil {
		return fmt.Errorf("no convergence to a primary component: %w", err)
	}
	if err := r.waitQuiesced(deadline); err != nil {
		return err
	}

	// Collect replies: every attempt of a submission whose origin never
	// crashed must be answered (liveness says the reply comes; channels
	// whose origin crashed may never be). A submission counts as
	// acknowledged when any attempt green-replied to the client — the
	// crash rule guarantees that knowledge was never erased, so the
	// durability check below is exact, not best-effort.
	var expect []*pendingSubmit
	for _, s := range r.subs {
		acked := false
		for _, at := range s.attempts {
			var rep core.Reply
			var got bool
			if r.chk.everCrashed(at.origin) {
				select {
				case rep = <-at.ch:
					got = true
				default:
				}
			} else {
				select {
				case rep = <-at.ch:
					got = true
				case <-time.After(time.Until(deadline)):
					return fmt.Errorf("submission %s at %s never answered after convergence", s.key, at.origin)
				}
			}
			if got && rep.Err == "" && rep.GreenSeq > 0 {
				acked = true
			}
		}
		if acked {
			expect = append(expect, s)
		}
	}

	if err := r.chk.observe(r.c); err != nil {
		return err
	}
	if err := r.c.CheckTotalOrder(r.ids...); err != nil {
		return err
	}
	if err := r.c.CheckColoring(r.ids...); err != nil {
		return err
	}
	if err := r.checkStateEquality(); err != nil {
		return err
	}
	rep := r.c.Replica(r.ids[0])
	for _, s := range expect {
		res, err := rep.DB.QueryGreen(db.Get(s.key))
		if err != nil {
			return fmt.Errorf("durability query %s: %w", s.key, err)
		}
		if res.Value != s.val {
			return fmt.Errorf("durability violated: green-replied %s=%s reads %q after convergence",
				s.key, s.val, res.Value)
		}
	}
	// Exactly-once: each submission bumps a per-key counter, and every
	// attempt reuses the idempotency key, so after convergence the counter
	// reads at most 1 no matter how many retries raced the original —
	// and exactly 1 for any submission a client saw acknowledged.
	for _, s := range r.subs {
		res, err := rep.DB.QueryGreen(db.Get("ctr:" + s.key))
		if err != nil {
			return fmt.Errorf("dedup counter query %s: %w", s.key, err)
		}
		switch {
		case res.Value == "" || res.Value == "1":
			// applied at most once (or never reached the green zone)
		default:
			return fmt.Errorf("exactly-once violated: key %s (%d attempts) applied %s times",
				s.key, len(s.attempts), res.Value)
		}
		if res.Value == "" {
			for _, e := range expect {
				if e == s {
					return fmt.Errorf("exactly-once violated: key %s acknowledged green but counter never applied", s.key)
				}
			}
		}
	}
	// Every run doubles as a metrics conformance check: render each
	// replica's registry and reject any output the in-repo exposition
	// parser would not accept (grammar, bucket monotonicity, sum/count).
	for _, id := range r.ids {
		var text strings.Builder
		if err := r.c.Replica(id).Obs.Reg.WriteText(&text); err != nil {
			return fmt.Errorf("metrics render %s: %w", id, err)
		}
		if _, err := obs.ParseExposition(text.String()); err != nil {
			return fmt.Errorf("metrics exposition %s invalid: %w", id, err)
		}
	}
	r.opts.Logf("sim seed=%d: converged, %d submissions (%d green-verified), ledger %d greens, %d installs",
		r.sched.Seed, r.nsub, len(expect), len(r.chk.ledger), len(r.chk.installs))
	return nil
}

// waitQuiesced waits until green counts are equal everywhere, red zones
// are empty, no replica holds a submission still waiting for its green
// (Status.InFlight: buffered, or created and not yet delivered — a request
// buffered during the exchange is created only after the install, and
// would otherwise turn green in the middle of the checks that follow),
// and nothing changes across two consecutive polls.
func (r *runner) waitQuiesced(deadline time.Time) error {
	var last []uint64
	stable := 0
	for time.Now().Before(deadline) {
		counts := make([]uint64, 0, len(r.ids))
		equal, redFree := true, true
		for _, id := range r.ids {
			rep := r.c.Replica(id)
			if rep == nil {
				equal = false
				break
			}
			st := rep.Engine.Status()
			if st.State != core.RegPrim {
				equal = false
				break
			}
			if st.RedCount != 0 || st.InFlight != 0 {
				redFree = false
			}
			counts = append(counts, st.GreenCount)
			if counts[0] != st.GreenCount {
				equal = false
			}
		}
		if equal && redFree && len(counts) == len(r.ids) {
			same := last != nil && len(last) == len(counts)
			if same {
				for i := range counts {
					if counts[i] != last[i] {
						same = false
						break
					}
				}
			}
			if same {
				stable++
				if stable >= 2 {
					return nil
				}
			} else {
				stable = 0
			}
			last = counts
		} else {
			stable = 0
			last = nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("cluster never quiesced (equal green counts, empty red zones, nothing in flight)")
}

// checkStateEquality asserts byte-identical database snapshots and equal
// green counts across all replicas after convergence.
func (r *runner) checkStateEquality() error {
	var refID types.ServerID
	var refSnap []byte
	var refGreen uint64
	for _, id := range r.ids {
		rep := r.c.Replica(id)
		if rep == nil {
			return fmt.Errorf("replica %s missing after convergence", id)
		}
		st := rep.Engine.Status()
		snap := rep.DB.Snapshot()
		if refID == "" {
			refID, refSnap, refGreen = id, snap, st.GreenCount
			continue
		}
		if st.GreenCount != refGreen {
			return fmt.Errorf("green counts diverge after convergence: %s=%d, %s=%d",
				refID, refGreen, id, st.GreenCount)
		}
		if !bytes.Equal(snap, refSnap) {
			return fmt.Errorf("database snapshots diverge after convergence: %s vs %s", refID, id)
		}
	}
	return nil
}
