package main

import (
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"

	"evsdb/internal/core"
)

// catchUpTimeout is the watchdog on a heal: the minority must reach the
// majority's green count within it, or the run fails naming every
// replica's state. The known Construct wedge ends here instead of hanging.
const catchUpTimeout = 5 * time.Second

// cycle is one partition-and-heal as the fault scheduler saw it.
type cycle struct {
	partitionAt, healAt int64
	caughtUpAt          int64 // minority reached the majority's green count at heal
	primaryAt           int64 // every replica back in RegPrim
	// Engine multicasts, cluster-wide, at healAt and at primaryAt (traced
	// runs only): what the exchange and retransmission sent.
	mcAtHeal, mcAtPrimary int
}

// phase is a range of ops and the time it covered.
type phase struct {
	first, n   int
	start, end int64
}

// loadResult is what one load run leaves for the metrics and the checks.
type loadResult struct {
	spec     spec
	in       *inputs
	ops      *opLog
	warmEnd  int64
	paced    phase
	saturate phase
	cpuUs    float64 // process user+system time over the saturate phase
	reads    *reader
	cycles   []cycle
	greenAt0 uint64 // green count before the first op
}

func cpuTimeUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func sleepUntil(l *opLog, at int64) {
	if wait := at - l.now(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
}

// runLoad drives one stack through a plan: the closed-loop phase, then
// warm-up and paced phase on one open-loop schedule (with the fault cycles
// laid over it). rec is nil unless the stack is traced.
func runLoad(st *stack, s spec, p plan, in *inputs, epoch time.Time, rec *recorder) (*loadResult, error) {
	engines := make([]*core.Engine, len(st.reps))
	for i, r := range st.reps {
		engines[i] = r.eng
	}
	st0, ok := st.status(0)
	if !ok {
		return nil, fmt.Errorf("%s: replica s00 gives no status before the run", s.Name)
	}
	res := &loadResult{spec: s, in: in, greenAt0: st0.GreenCount}
	g := newLoadgen(st.submitters(), in.updates, in.homes, epoch)
	res.ops = g.log

	rd := &reader{engines: engines, plan: in.reads, log: g.log, valid: in.validRead,
		every: time.Duration(s.ReadEveryMs * float64(time.Millisecond))}
	res.reads = rd
	stopReader := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.run(stopReader)
	}()

	// A plan's closed loop runs before its schedule; ops are numbered in
	// issue order. (End-to-end runs give each phase a plan, and a cluster,
	// of its own.)
	nOpen := int(s.PacedRate * (p.warm + p.paced).Seconds())
	nClosed := 0
	if p.saturate > 0 {
		maxClosed := min(s.SaturateMaxOps, len(in.updates)-nOpen)
		cpu0 := cpuTimeUs()
		n, t0, t1 := g.closedLoop(0, maxClosed, s.SaturateWindow, p.saturate)
		res.cpuUs = cpuTimeUs() - cpu0
		res.saturate = phase{first: 0, n: n, start: t0, end: t1}
		nClosed = n
	}

	start := g.log.now() + int64(time.Millisecond)
	res.warmEnd = start + int64(p.warm)
	res.paced = phase{first: nClosed, n: nOpen, start: res.warmEnd, end: res.warmEnd + int64(p.paced)}
	faultErr := make(chan error, 1)
	if p.cycles > 0 {
		go func() { faultErr <- runFaults(st, s, p, g.log, res, rec) }()
	} else {
		faultErr <- nil
	}
	g.openLoop(nClosed, nOpen, s.PacedRate, start)
	if err := <-faultErr; err != nil {
		g.fail(err)
	}
	g.drain()
	close(stopReader)
	wg.Wait()
	if err := g.finish(); err != nil {
		return res, fmt.Errorf("%s: %w: %s", s.Name, err, st.states())
	}
	return res, nil
}

// runFaults partitions and heals on the paced phase's schedule. Requests
// keep their own schedule through every view change.
func runFaults(st *stack, s spec, p plan, l *opLog, res *loadResult, rec *recorder) error {
	cycleLen := int64(p.paced) / int64(p.cycles)
	timeout := catchUpTimeout
	if s.catchUp > 0 {
		timeout = s.catchUp
	}
	multicasts := func() int {
		n := 0
		if rec != nil {
			for _, g := range rec.gcs {
				n += g.multicastCount()
			}
		}
		return n
	}
	for c := 0; c < p.cycles; c++ {
		var cy cycle
		begin := res.warmEnd + int64(c)*cycleLen
		sleepUntil(l, begin)
		cy.partitionAt = l.now()
		st.net.Partition(st.group(s.Majority...), st.group(s.Minority...))
		sleepUntil(l, begin+cycleLen/3)
		target, ok := st.status(s.Majority[0])
		if !ok {
			return fmt.Errorf("cycle %d: majority replica gives no status", c)
		}
		cy.mcAtHeal = multicasts()
		cy.healAt = l.now()
		if s.inject != "stuck-heal" {
			st.net.Heal()
		}
		if err := st.waitGreen(target.GreenCount, timeout, s.Minority...); err != nil {
			return fmt.Errorf("cycle %d: no catch-up after heal: %w", c, err)
		}
		cy.caughtUpAt = l.now()
		if err := st.waitPrimary(timeout, st.all()...); err != nil {
			return fmt.Errorf("cycle %d: %w", c, err)
		}
		cy.primaryAt = l.now()
		cy.mcAtPrimary = multicasts()
		res.cycles = append(res.cycles, cy)
	}
	return nil
}

// e2e are the end-to-end numbers of one run, measured with tracing off.
type e2e struct {
	commitP50Ms, commitP95Ms, commitP99Ms float64
	commitMeanMs                          float64
	pacedSamples                          int
	sloMiss, failedRatio                  float64
	capacityOpsS, cpuUsPerOp              float64
	saturateOps                           int
	readP50Us, readP95Us                  float64
	readSamples                           int
	partitionStallMs, healStallMs         float64
	maxLateMs, lateShare                  float64
	attempted, failed                     int
}

func ms(ns float64) float64 { return ns / 1e6 }

// summarize turns an op log into end-to-end numbers.
func (r *loadResult) summarize() e2e {
	var m e2e
	l := r.ops
	var lat []float64
	paced, missed, late := 0, 0, 0
	for i := r.paced.first; i < r.paced.first+r.paced.n; i++ {
		if l.state[i] == opPending {
			continue // never issued: the run was aborted
		}
		m.attempted++
		if l.state[i] != opOK {
			m.failed++
		}
		if l.due[i] < r.paced.start {
			continue // warm-up
		}
		paced++
		lateBy := ms(float64(l.sent[i] - l.due[i]))
		m.maxLateMs = max(m.maxLateMs, lateBy)
		if lateBy > 1 {
			late++
		}
		if l.state[i] != opOK {
			missed++
			continue
		}
		d := float64(l.done[i] - l.due[i])
		if d > float64(sloLimit) {
			missed++
		}
		lat = append(lat, ms(d))
	}
	sort.Float64s(lat)
	m.pacedSamples = len(lat)
	m.commitP50Ms = quantile(lat, 0.50)
	m.commitP95Ms = quantile(lat, 0.95)
	m.commitP99Ms = quantile(lat, 0.99)
	for _, x := range lat {
		m.commitMeanMs += x / float64(len(lat))
	}
	if paced > 0 {
		m.sloMiss = float64(missed) / float64(paced)
		m.lateShare = float64(late) / float64(paced)
	}

	okSat := 0
	for i := r.saturate.first; i < r.saturate.first+r.saturate.n; i++ {
		m.attempted++
		if l.state[i] == opOK {
			okSat++
		} else {
			m.failed++
		}
	}
	m.saturateOps = okSat
	if wall := float64(r.saturate.end-r.saturate.start) / 1e9; wall > 0 && okSat > 0 {
		m.capacityOpsS = float64(okSat) / wall
		m.cpuUsPerOp = r.cpuUs / float64(okSat)
	}
	if m.attempted > 0 {
		m.failedRatio = float64(m.failed) / float64(m.attempted)
	}

	var reads []float64
	for _, s := range r.reads.samples {
		if s.at >= r.paced.start && s.at < r.paced.end {
			reads = append(reads, s.perNs/1e3)
		}
	}
	sort.Float64s(reads)
	m.readSamples = len(reads)
	m.readP50Us = quantile(reads, 0.50)
	m.readP95Us = quantile(reads, 0.95)

	m.partitionStallMs, m.healStallMs = r.cycleStalls()
	return m
}

// stallWindow is how long after a partition or a heal a request counts
// towards that event's stall.
const stallWindow = 500 * time.Millisecond

// cycleStalls is, per cycle, the worst due-to-reply latency among requests
// due shortly after the partition and after the heal; medians over cycles.
func (r *loadResult) cycleStalls() (partition, heal float64) {
	if len(r.cycles) == 0 {
		return 0, 0
	}
	l := r.ops
	worstAfter := func(from, until int64) float64 {
		w := 0.0
		// Ops are issued in due order, so the window is a contiguous range.
		first, end := r.paced.first, r.paced.first+r.paced.n
		lo := first + sort.Search(r.paced.n, func(i int) bool { return l.due[first+i] >= from })
		for i := lo; i < end && l.due[i] < until; i++ {
			if l.state[i] == opOK {
				w = max(w, ms(float64(l.done[i]-l.due[i])))
			}
		}
		return w
	}
	var ps, hs []float64
	for _, c := range r.cycles {
		ps = append(ps, worstAfter(c.partitionAt, min(c.partitionAt+int64(stallWindow), c.healAt)))
		hs = append(hs, worstAfter(c.healAt, c.healAt+int64(stallWindow)))
	}
	return median(ps), median(hs)
}
