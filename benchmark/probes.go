package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"evsdb/internal/client"
	"evsdb/internal/db"
	"evsdb/internal/evs"
	"evsdb/internal/httpapi"
	"evsdb/internal/storage"
	"evsdb/internal/transport/memnet"
	"evsdb/internal/transport/tcpnet"
	"evsdb/internal/types"
)

// The probes time one layer's public functions directly, from one
// goroutine, at fixed iteration counts; each value is the median of a few
// repetitions. They do not depend on the workload, so every traced run
// reports the same set and a layer's number can be read next to the
// end-to-end one it should move.

// probeSizes are the probes' data sizes and iteration counts.
type probeSizes struct {
	reps       int
	dbKeys     int // keys in the database the apply and query probes run on
	batches    int // 64-update batches per repetition
	queries    int
	prefixKeys int
	logAppends int
	fileSyncs  int
	evsIdle    int // one-at-a-time multicasts
	evsStream  int // pipelined multicasts
	soloOps    int
	restartOps int
	tcpPings   int
	tcpFrames  int
	httpGets   int
	httpSets   int
}

var fullProbes = probeSizes{
	reps: 5, dbKeys: 100000, batches: 20, queries: 20000, prefixKeys: 10000,
	logAppends: 100000, fileSyncs: 100, evsIdle: 100, evsStream: 20000,
	soloOps: 200, restartOps: 20000, tcpPings: 500, tcpFrames: 5000,
	httpGets: 300, httpSets: 100,
}

// scratchDir is where the probes may write files: inside the checkout.
const scratchDir = ".bench_build"

// medianOf repeats fn and returns the median of what it returns.
func medianOf(reps int, fn func() (float64, error)) (float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		out = append(out, x)
	}
	return median(out), nil
}

func elapsedUs(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e3 }

// runProbes fills v with every probe's metric.
func runProbes(seed int64, sz probeSizes, v values) error {
	probes := []func(int64, probeSizes, values) error{
		probeDB, probeStorage, probeEVS, probeSolo, probeRestart, probeTCP, probeHTTP,
	}
	for _, p := range probes {
		if err := p(seed, sz, v); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

func probeDB(seed int64, sz probeSizes, v values) error {
	rng := rand.New(rand.NewSource(seed))
	load := func(d *db.Database, n int) {
		for lo := 0; lo < n; lo += preloadBatch {
			ops := make([]db.Op, 0, preloadBatch)
			for k := lo; k < min(lo+preloadBatch, n); k++ {
				ops = append(ops, db.Set(keyName(k), value(rng, keyName(k), 0, 64)))
			}
			_ = d.Apply(db.EncodeUpdate(ops...)) // sets cannot abort
		}
	}
	d := db.New()
	load(d, sz.dbKeys)

	// Batches of 64 updates of 16 sets each, keys uniform: apply_heavy's
	// green run, without the engine around it.
	batch := func() [][]byte {
		updates := make([][]byte, 64)
		for i := range updates {
			ops := make([]db.Op, 16)
			for j := range ops {
				key := keyName(rng.Intn(sz.dbKeys))
				ops[j] = db.Set(key, value(rng, key, 1, 64))
			}
			updates[i] = db.EncodeUpdate(ops...)
		}
		return updates
	}
	applyProbe := func(apply func([][]byte) []error) (float64, error) {
		return medianOf(sz.reps, func() (float64, error) {
			batches := make([][][]byte, sz.batches)
			for i := range batches {
				batches[i] = batch()
			}
			t0 := time.Now()
			for _, b := range batches {
				for _, err := range apply(b) {
					if err != nil {
						return 0, err
					}
				}
			}
			return elapsedUs(t0) / float64(len(batches)), nil
		})
	}
	var err error
	if v["db.apply_batch64_us"], err = applyProbe(d.ApplyBatch); err != nil {
		return err
	}
	if v["db.apply_parallel_batch64_us"], err = applyProbe(d.ApplyBatchParallel); err != nil {
		return err
	}
	dirty := batch()
	if v["db.apply_dirty_us"], err = medianOf(sz.reps, func() (float64, error) {
		t0 := time.Now()
		for _, u := range dirty {
			if err := d.ApplyDirty(u); err != nil {
				return 0, err
			}
		}
		us := elapsedUs(t0) / float64(len(dirty))
		d.ResetDirty()
		return us, nil
	}); err != nil {
		return err
	}

	queries := make([][]byte, 1024)
	for i := range queries {
		queries[i] = db.Get(keyName(rng.Intn(sz.dbKeys)))
	}
	queryProbe := func(q func([]byte) (db.Result, error)) (float64, error) {
		return medianOf(sz.reps, func() (float64, error) {
			t0 := time.Now()
			for i := 0; i < sz.queries; i++ {
				if res, err := q(queries[i%len(queries)]); err != nil || !res.Found {
					return 0, fmt.Errorf("db query: found=%v err=%v", res.Found, err)
				}
			}
			return elapsedUs(t0) * 1e3 / float64(sz.queries), nil
		})
	}
	if v["db.query_green_ns"], err = queryProbe(d.QueryGreen); err != nil {
		return err
	}
	if v["db.query_dirty_ns"], err = queryProbe(d.QueryDirty); err != nil {
		return err
	}

	small := db.New()
	load(small, sz.prefixKeys)
	prefix := db.Prefix("key-0000")
	if v["db.prefix_10k_us"], err = medianOf(sz.reps, func() (float64, error) {
		t0 := time.Now()
		const n = 5
		for i := 0; i < n; i++ {
			if _, err := small.QueryGreen(prefix); err != nil {
				return 0, err
			}
		}
		return elapsedUs(t0) / n, nil
	}); err != nil {
		return err
	}

	var snap []byte
	if v["db.snapshot_100k_ms"], err = medianOf(3, func() (float64, error) {
		t0 := time.Now()
		snap = d.Snapshot()
		return elapsedUs(t0) / 1e3, nil
	}); err != nil {
		return err
	}
	v["db.restore_100k_ms"], err = medianOf(3, func() (float64, error) {
		fresh := db.New()
		t0 := time.Now()
		if err := fresh.Restore(snap); err != nil {
			return 0, err
		}
		return elapsedUs(t0) / 1e3, nil
	})
	return err
}

func probeStorage(_ int64, sz probeSizes, v values) error {
	record := make([]byte, 256)
	var err error
	if v["storage.memlog_append_ns"], err = medianOf(sz.reps, func() (float64, error) {
		l := storage.NewMemLog(storage.Options{})
		t0 := time.Now()
		for i := 0; i < sz.logAppends; i++ {
			if err := l.Append(record); err != nil {
				return 0, err
			}
		}
		return elapsedUs(t0) * 1e3 / float64(sz.logAppends), nil
	}); err != nil {
		return err
	}

	// A real file and a real fsync: the sandbox's disk, not a device worth
	// quoting.
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(scratchDir, "filelog")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := storage.OpenFileLog(filepath.Join(dir, "probe.wal"), storage.Options{})
	if err != nil {
		return err
	}
	defer l.Close()
	per := make([]float64, sz.fileSyncs)
	for i := range per {
		t0 := time.Now()
		if err := l.Append(record); err != nil {
			return err
		}
		if err := l.Sync(); err != nil {
			return err
		}
		per[i] = elapsedUs(t0)
	}
	v["storage.filelog_append_sync_us"] = median(per)
	return nil
}

// probeEVS times the group communication layer alone: 5 nodes over the
// benchmark's network settings, no engine.
func probeEVS(_ int64, sz probeSizes, v values) error {
	const n = 5
	network := memnet.New(memnet.WithLatency(netDelay))
	nodes := make([]*evs.Node, n)
	for i := range nodes {
		ep, err := network.Attach(serverID(i))
		if err != nil {
			return err
		}
		nodes[i] = evs.NewNode(ep, evs.WithTick(evsTick))
	}
	defer func() {
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	// Every node's events are drained; node 0's own deliveries and the
	// full view are passed on.
	own := make(chan struct{}, sz.evsStream) // holds a whole stream: the drain never waits for the probe
	ready := make(chan struct{}, n)
	for i, nd := range nodes {
		go func() {
			for ev := range nd.Events() {
				switch t := ev.(type) {
				case evs.ViewChange:
					if !t.Config.Transitional && len(t.Config.Members) == n {
						ready <- struct{}{}
					}
				case evs.Delivery:
					if i == 0 && t.Sender == serverID(0) {
						own <- struct{}{}
					}
				}
			}
		}()
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-ready:
		case <-timeout:
			return errors.New("evs: 5 nodes formed no common view in 10 s")
		}
	}
	await := func(k int) error {
		t := time.NewTimer(10 * time.Second)
		defer t.Stop()
		for ; k > 0; k-- {
			select {
			case <-own:
			case <-t.C:
				return errors.New("evs: own multicast not delivered in 10 s")
			}
		}
		return nil
	}
	payload := make([]byte, 200)
	idle := func(level evs.ServiceLevel) (float64, error) {
		per := make([]float64, sz.evsIdle)
		for i := range per {
			t0 := time.Now()
			if err := nodes[0].Multicast(payload, level); err != nil {
				return 0, err
			}
			if err := await(1); err != nil {
				return 0, err
			}
			per[i] = elapsedUs(t0) / 1e3
		}
		return median(per), nil
	}
	var err error
	if v["evs.safe_idle_ms"], err = idle(evs.Safe); err != nil {
		return err
	}
	if v["evs.agreed_idle_ms"], err = idle(evs.Agreed); err != nil {
		return err
	}
	// Pipelined, but bounded: memnet sheds the oldest datagram of a queue
	// past 4096, and evs recovers from that by NACK, which is a different
	// measurement.
	const window = 512
	t0 := time.Now()
	for i := 0; i < sz.evsStream; i++ {
		if i >= window {
			if err := await(1); err != nil {
				return err
			}
		}
		if err := nodes[0].Multicast(payload, evs.Safe); err != nil {
			return err
		}
	}
	if err := await(min(window, sz.evsStream)); err != nil {
		return err
	}
	v["evs.safe_stream_msgs_s"] = float64(sz.evsStream) / time.Since(t0).Seconds()
	return nil
}

func noopUpdates(rng *rand.Rand, n int) [][]byte {
	s, _ := specByName("strict_write")
	s.Homes = []int{0}
	return s.generate(rng.Int63(), n).updates
}

// probeSolo is the single-node baseline: one replica, 2 ms forced write,
// one write at a time. commit_p50_ms minus this is what ordering across
// replicas costs.
func probeSolo(seed int64, sz probeSizes, v values) error {
	st, err := newStack(stackConfig{Replicas: 1, Sync: storage.SyncForced, SyncLatency: 2 * time.Millisecond})
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.waitPrimary(10*time.Second, 0); err != nil {
		return err
	}
	updates := noopUpdates(rand.New(rand.NewSource(seed)), sz.soloOps)
	g := newLoadgen(st.submitters(), updates, make([]uint8, len(updates)), time.Now())
	g.closedLoop(0, len(updates), 1, time.Minute)
	if err := g.finish(); err != nil {
		return fmt.Errorf("solo commit: %w", err)
	}
	lat := make([]float64, 0, len(updates))
	for i, s := range g.log.state {
		if s != opOK {
			return fmt.Errorf("solo commit: op %d not acknowledged", i)
		}
		lat = append(lat, ms(float64(g.log.done[i]-g.log.due[i])))
	}
	v["core.solo_commit_p50_ms"] = median(lat)
	return nil
}

// probeRestart loads 3 replicas, crashes all of them and times the restart
// until all are RegPrim again: WAL replay plus forming the primary. Delayed
// writes keep every record, so the replicas restart without a gap between
// them (a wide gap is the known Construct wedge, not what this measures).
func probeRestart(seed int64, sz probeSizes, v values) error {
	st, err := newStack(stackConfig{Replicas: 3, Sync: storage.SyncDelayed})
	if err != nil {
		return err
	}
	defer func() { st.close() }()
	if err := st.waitPrimary(10*time.Second, st.all()...); err != nil {
		return err
	}
	updates := noopUpdates(rand.New(rand.NewSource(seed)), sz.restartOps)
	homes := make([]uint8, len(updates))
	for i := range homes {
		homes[i] = uint8(i % 3)
	}
	g := newLoadgen(st.submitters(), updates, homes, time.Now())
	g.closedLoop(0, len(updates), 512, time.Minute)
	if err := g.finish(); err != nil {
		return fmt.Errorf("cold restart: load: %w", err)
	}
	if err := st.waitGreen(uint64(len(updates)), quiesceTimeout, st.all()...); err != nil {
		return fmt.Errorf("cold restart: %w", err)
	}
	st.crashAll()
	t0 := time.Now()
	if err := st.recoverAll(); err != nil {
		return fmt.Errorf("cold restart: %w", err)
	}
	if err := st.waitPrimary(30*time.Second, st.all()...); err != nil {
		return fmt.Errorf("cold restart: %w", err)
	}
	v["core.cold_restart_ms"] = elapsedUs(t0) / 1e3
	if err := st.waitGreen(uint64(len(updates)), quiesceTimeout, st.all()...); err != nil {
		return fmt.Errorf("cold restart lost actions: %w", err)
	}
	return nil
}

// probeTCP times the socket transport between two nodes on loopback.
func probeTCP(_ int64, sz probeSizes, v values) error {
	ids := []types.ServerID{"a", "b"}
	addrs := make(map[types.ServerID]string)
	for _, id := range ids {
		// Reserve a port so both configs are complete before either starts.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("tcpnet: %w", err)
		}
		addrs[id] = ln.Addr().String()
		if err := ln.Close(); err != nil {
			return err
		}
	}
	nodes := make(map[types.ServerID]*tcpnet.Node)
	for _, id := range ids {
		peer := ids[0]
		if id == peer {
			peer = ids[1]
		}
		n, err := tcpnet.New(tcpnet.Config{ID: id, Listen: addrs[id],
			Peers: map[types.ServerID]string{peer: addrs[peer]}, Heartbeat: 20 * time.Millisecond})
		if err != nil {
			return fmt.Errorf("tcpnet: %w", err)
		}
		defer n.Close()
		nodes[id] = n
	}
	a, b := nodes["a"], nodes["b"]
	// b echoes short frames and counts long ones.
	const frame = 4096
	streamed := make(chan int, 1)
	go func() {
		total := 0
		for m := range b.Recv() {
			if len(m.Payload) < frame {
				_ = b.Send("a", m.Payload) // best effort; a lost echo is retried below
				continue
			}
			total += len(m.Payload)
			if total >= sz.tcpFrames*frame {
				streamed <- total
				total = 0
			}
		}
	}()
	ping := []byte("ping")
	roundTrip := func(wait time.Duration) bool {
		_ = a.Send("b", ping)
		t := time.NewTimer(wait)
		defer t.Stop()
		for {
			select {
			case m, ok := <-a.Recv():
				if !ok {
					return false
				}
				if len(m.Payload) == len(ping) {
					return true
				}
			case <-t.C:
				return false
			}
		}
	}
	// Sends are dropped until both directions are dialed.
	connected := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if connected = roundTrip(50 * time.Millisecond); connected {
			break
		}
	}
	if !connected {
		return errors.New("tcpnet: no round trip on loopback in 10 s")
	}
	per := make([]float64, 0, sz.tcpPings)
	for i := 0; i < sz.tcpPings; i++ {
		t0 := time.Now()
		if !roundTrip(time.Second) {
			return errors.New("tcpnet: echo lost")
		}
		per = append(per, elapsedUs(t0))
	}
	v["tcpnet.rtt_us"] = median(per)

	big := make([]byte, frame)
	t0 := time.Now()
	for i := 0; i < sz.tcpFrames; i++ {
		if err := a.Send("b", big); err != nil {
			return fmt.Errorf("tcpnet: %w", err)
		}
	}
	select {
	case total := <-streamed:
		v["tcpnet.stream_mb_s"] = float64(total) / 1e6 / time.Since(t0).Seconds()
	case <-time.After(20 * time.Second):
		return errors.New("tcpnet: stream not received in 20 s")
	}
	return nil
}

// probeHTTP times the HTTP edge: internal/client against an httptest
// server over httpapi on one replica of 3, one connection, one request at
// a time. The weak get never leaves the replica, so it is pure edge cost.
func probeHTTP(_ int64, sz probeSizes, v values) error {
	st, err := newStack(stackConfig{Replicas: 3, Sync: storage.SyncForced, SyncLatency: 2 * time.Millisecond})
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.waitPrimary(10*time.Second, st.all()...); err != nil {
		return err
	}
	srv := httptest.NewServer(httpapi.New(st.reps[0].eng, httpapi.Config{}))
	defer srv.Close()
	c, err := client.New([]string{srv.URL})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sets := make([]float64, 0, sz.httpSets)
	for i := 0; i < sz.httpSets; i++ {
		t0 := time.Now()
		if _, err := c.Set(ctx, "http-key", fmt.Sprintf("v%d", i)); err != nil {
			return fmt.Errorf("httpapi set: %w", err)
		}
		sets = append(sets, elapsedUs(t0)/1e3)
	}
	gets := make([]float64, 0, sz.httpGets)
	for i := 0; i < sz.httpGets; i++ {
		t0 := time.Now()
		res, err := c.Get(ctx, "http-key", client.Weak)
		if err != nil || !res.Found {
			return fmt.Errorf("httpapi weak get: found=%v err=%v", res.Found, err)
		}
		gets = append(gets, elapsedUs(t0))
	}
	sort.Float64s(sets)
	sort.Float64s(gets)
	v["httpapi.set_p50_ms"] = quantile(sets, 0.5)
	v["httpapi.weak_get_p50_us"] = quantile(gets, 0.5)
	return nil
}
