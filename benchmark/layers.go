package main

import (
	"fmt"
	"sort"
	"time"
)

// counts are the decorators' cluster-wide totals at one moment.
type counts struct {
	appends, syncs, walBytes             uint64
	gcMulticasts, deliveries             uint64
	sends, nodeMulticasts, transportByte uint64
}

func (r *recorder) counts() counts {
	var c counts
	for i := range r.gcs {
		syncs, appends, bytes := r.logs[i].snapshot()
		c.appends += appends
		c.syncs += uint64(len(syncs))
		c.walBytes += bytes
		mc, _, _, deliveries := r.gcs[i].snapshot()
		c.gcMulticasts += uint64(len(mc))
		c.deliveries += deliveries
		c.sends += r.nodes[i].sends.Load()
		c.nodeMulticasts += r.nodes[i].multicasts.Load()
		c.transportByte += r.nodes[i].bytes.Load()
	}
	return c
}

func (c counts) minus(o counts) counts {
	return counts{
		appends: c.appends - o.appends, syncs: c.syncs - o.syncs, walBytes: c.walBytes - o.walBytes,
		gcMulticasts: c.gcMulticasts - o.gcMulticasts, deliveries: c.deliveries - o.deliveries,
		sends: c.sends - o.sends, nodeMulticasts: c.nodeMulticasts - o.nodeMulticasts,
		transportByte: c.transportByte - o.transportByte,
	}
}

// stageMetrics splits the paced phase's commits of a traced run at the
// boundaries the decorators saw, and returns the splits for the trace file.
func stageMetrics(rec *recorder, res *loadResult, v values) map[string][]split {
	l := res.ops
	byHome := make(map[int][]commit)
	total := 0
	for i := res.paced.first; i < res.paced.first+res.paced.n; i++ {
		if l.state[i] == opOK && l.due[i] >= res.paced.start {
			h := int(l.home[i])
			byHome[h] = append(byHome[h], commit{id: i, start: l.due[i], end: l.done[i]})
			total++
		}
	}
	byReplica := make(map[string][]split)
	var submit, order, apply, self, all []float64
	skipped := 0
	for h, commits := range byHome {
		mc, own, _, _ := rec.gcs[h].snapshot()
		syncs, _, _ := rec.logs[h].snapshot()
		splits, skip := attribute(commits, mc, own, syncs)
		skipped += skip
		byReplica[string(serverID(h))] = splits
		for _, s := range splits {
			submit = append(submit, ms(float64(s.submitToMulticast())))
			order = append(order, ms(float64(s.multicastToSafe())))
			apply = append(apply, ms(float64(s.safeToReply())))
			self = append(self, ms(float64(s.submitToMulticast()-(s.sync.end-s.sync.start))))
			all = append(all, ms(float64(s.end-s.start)))
		}
	}
	v["core.submit_to_multicast_ms"] = median(submit)
	v["core.submit_self_ms"] = median(self)
	v["evs.multicast_to_safe_ms"] = median(order)
	v["core.safe_to_reply_ms"] = median(apply)
	v["trace.commit_p50_ms"] = median(all)
	if total > 0 {
		v["trace.unattributed_share"] = float64(skipped) / float64(total)
	}

	// Forced writes of every replica while the load ran.
	var syncMs []float64
	for i := range rec.logs {
		syncs, _, _ := rec.logs[i].snapshot()
		for _, s := range syncs {
			if s.start >= res.warmEnd {
				syncMs = append(syncMs, ms(float64(s.end-s.start)))
			}
		}
	}
	v["storage.sync_ms"] = median(syncMs)
	return byReplica
}

// countMetrics divides the decorators' totals over the load by the writes
// it acknowledged.
func countMetrics(c counts, res *loadResult, dropped uint64, v values) {
	acked := 0
	for _, s := range res.ops.state {
		if s == opOK {
			acked++
		}
	}
	per := func(n uint64) float64 {
		if acked == 0 {
			return 0
		}
		return float64(n) / float64(acked)
	}
	v["storage.appends_per_op"] = per(c.appends)
	v["storage.syncs_per_op"] = per(c.syncs)
	v["storage.wal_bytes_per_op"] = per(c.walBytes)
	if res.in.payloadBytes > 0 {
		v["storage.wal_amplification"] = per(c.walBytes) / float64(res.in.payloadBytes)
	}
	if c.gcMulticasts > 0 {
		v["core.actions_per_multicast"] = float64(acked) / float64(c.gcMulticasts)
	}
	v["evs.deliveries_per_op"] = per(c.deliveries)
	v["transport.sends_per_op"] = per(c.sends)
	v["transport.multicasts_per_op"] = per(c.nodeMulticasts)
	v["transport.bytes_per_op"] = per(c.transportByte)
	v["transport.dropped_total"] = float64(dropped)
}

// faultMetrics are the fault cycles' numbers, medians over the cycles of a
// traced run.
func faultMetrics(rec *recorder, res *loadResult, v values) error {
	if len(res.cycles) == 0 {
		return fmt.Errorf("%s: no fault cycle completed", res.spec.Name)
	}
	var viewMs, catchUpMs, retrans []float64
	for _, c := range res.cycles {
		// The partition is over, from the majority's side, when its last
		// member has the regular configuration of the majority alone.
		var last int64
		for _, h := range res.spec.Majority {
			_, _, views, _ := rec.gcs[h].snapshot()
			k := sort.Search(len(views), func(k int) bool { return views[k].at >= c.partitionAt })
			for ; k < len(views); k++ {
				if !views[k].transitional && views[k].members == len(res.spec.Majority) {
					last = max(last, views[k].at)
					break
				}
			}
		}
		if last > 0 && last < c.healAt {
			viewMs = append(viewMs, ms(float64(last-c.partitionAt)))
		}
		catchUpMs = append(catchUpMs, ms(float64(c.caughtUpAt-c.healAt)))
		retrans = append(retrans, float64(c.mcAtPrimary-c.mcAtHeal))
	}
	if len(viewMs) == 0 {
		return fmt.Errorf("%s: no majority view change seen in %d cycles", res.spec.Name, len(res.cycles))
	}
	v["evs.view_change_ms"] = median(viewMs)
	v["core.heal_catchup_ms"] = median(catchUpMs)
	v["core.retrans_multicasts_per_heal"] = median(retrans)
	v["partition_stall_ms"], v["heal_stall_ms"] = res.cycleStalls()
	return nil
}

// tracedLoad sets up a traced stack, runs a plan on it, checks it and
// closes it.
func tracedLoad(s spec, p plan, seed int64, v values) (*recorder, *loadResult, error) {
	in := s.inputsFor(seed, p)
	epoch := time.Now()
	rec := newRecorder(epoch, s.Replicas)
	st, err := setup(s, rec.seams(), seed)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		st.close()
		rec.stop()
	}()
	before := rec.counts()
	res, err := runLoad(st, s, p, in, epoch, rec)
	if err == nil {
		err = verify(st, res)
	}
	if err != nil {
		return rec, res, err
	}
	net := st.net.Stats()
	countMetrics(rec.counts().minus(before), res, net.Dropped+net.Overflow, v)
	scrapeMs, scrapeBytes, err := scrape(st)
	if err != nil {
		return rec, res, fmt.Errorf("%s: %w", s.Name, err)
	}
	v["obs.scrape_ms"], v["obs.scrape_bytes"] = scrapeMs, float64(scrapeBytes)
	return rec, res, nil
}

// Shares of -seconds a traced run gives its untraced baseline and its
// traced phase; neither has a closed-loop phase. faultProbeCycles is how
// many cycles a workload without faults borrows from partition_heal.
const (
	baselineShare    = 0.25
	tracedShare      = 0.4
	faultProbeCycles = 3
)

// measureTraced yields the per-layer metrics: an untraced baseline, the
// same paced phase with the decorators in, the fault cycles, the probes.
func measureTraced(s spec, seed int64, seconds float64, sz probeSizes, traceOut string) (values, *detail, error) {
	began := time.Now()
	d := &detail{Spec: s, Seed: seed, Seconds: seconds, Traced: true, Samples: map[string]int{}}
	v := values{}
	full := s.plan(seconds)
	perCycle := full.paced / time.Duration(max(full.cycles, 1))
	phases := func(share float64) plan {
		p := plan{warm: full.warm, paced: time.Duration(share * seconds * float64(time.Second))}
		if s.Cycles > 0 {
			p.cycles = max(1, int(p.paced/perCycle))
		}
		return p
	}

	// Baseline: decorators absent.
	basePlan := phases(baselineShare)
	st, err := setup(s, seams{}, seed)
	if err != nil {
		return nil, d, err
	}
	base, err := runLoad(st, s, basePlan, s.inputsFor(seed, basePlan), time.Now(), nil)
	if err == nil {
		err = verify(st, base)
	}
	st.close()
	if err != nil {
		return nil, d, err
	}
	bm := base.summarize()
	v["loadgen.max_late_ms"], v["loadgen.late_share"] = bm.maxLateMs, bm.lateShare
	v["loadgen.commit_p99_ms"], v["loadgen.commit_mean_ms"] = bm.commitP99Ms, bm.commitMeanMs
	v["slo_miss_ratio"], v["failed_ratio"] = bm.sloMiss, bm.failedRatio
	v["read_p50_us"], v["read_p95_us"] = bm.readP50Us, bm.readP95Us
	d.Samples["baseline_commit"] = bm.pacedSamples
	d.Attempted, d.Failed = bm.attempted, bm.failed

	// Traced: the same paced phase, decorators in.
	rec, res, err := tracedLoad(s, phases(tracedShare), seed+1, v)
	if err != nil {
		return nil, d, err
	}
	tm := res.summarize()
	d.Samples["traced_commit"] = tm.pacedSamples
	d.Attempted += tm.attempted
	d.Failed += tm.failed
	splits := stageMetrics(rec, res, v)
	if bm.commitP50Ms > 0 {
		v["trace.overhead_pct"] = 100 * (tm.commitP50Ms - bm.commitP50Ms) / bm.commitP50Ms
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, splits); err != nil {
			return nil, d, fmt.Errorf("write trace: %w", err)
		}
	}

	// Fault cycles: the workload's own, or a few borrowed from
	// partition_heal, so that every run reports the fault layers.
	if s.Cycles > 0 {
		err = faultMetrics(rec, res, v)
	} else {
		ph, _ := specByName("partition_heal")
		fp := ph.plan(seconds)
		cycleLen := fp.paced / time.Duration(fp.cycles)
		fp = plan{warm: fp.warm, paced: faultProbeCycles * cycleLen, cycles: faultProbeCycles}
		var frec *recorder
		var fres *loadResult
		if frec, fres, err = tracedLoad(ph, fp, seed+2, values{}); err == nil {
			err = faultMetrics(frec, fres, v)
		}
	}
	if err != nil {
		return nil, d, err
	}

	if err := runProbes(seed, sz, v); err != nil {
		return nil, d, err
	}
	d.WallSeconds = time.Since(began).Seconds()
	d.Correct = true
	return v, d, nil
}
