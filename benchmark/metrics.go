package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// defaultSeconds is how long one run measures (BENCHMARK.json's
// run_seconds); quickSeconds is the smoke run's.
const (
	defaultSeconds = 20
	quickSeconds   = 1
)

// metricDef names a metric as BENCHMARK.json lists it. Bound is the share
// of the parent's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	About  string // for the README's glossary
}

// endToEnd are the metrics a user of the system would see, measured with
// the decorators absent. Every workload reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "start of the replicas until all are RegPrim and the preload is applied everywhere; trimmed mean of the run's 3 to 40 set-ups, the first (cold) one left out"},
	{"commit_p50_ms", "ms", "lower", 0.15, "paced phase, open loop: time a write was due until its reply, median"},
	{"commit_p95_ms", "ms", "lower", 0.25, "the same, 95th percentile"},
	{"capacity_ops_s", "1/s", "higher", 0.25, "closed-loop phase: acknowledged writes per second of wall time"},
	{"cpu_us_per_op", "us", "lower", 0.25, "closed-loop phase: process user+system CPU (getrusage) per acknowledged write, reader included"},
	{"peak_rss_mb", "MB", "lower", 0.25, "ru_maxrss at the end of the run"},
}

// perLayer are the traced run's and the probes' metrics.
var perLayer = []metricDef{
	// A commit of the traced paced phase, cut at the boundaries visible
	// from outside the engine. Medians; the three stages sum to the root.
	{Name: "core.submit_to_multicast_ms", Unit: "ms", Better: "lower", About: "due time until the engine multicasts the action: generator lateness, admission, batch wait, WAL append, forced write"},
	{Name: "storage.sync_ms", Unit: "ms", Better: "lower", About: "duration of one Log.Sync call, all replicas, while the load ran (child of the stage above)"},
	{Name: "core.submit_self_ms", Unit: "ms", Better: "lower", About: "the first stage minus the forced write that preceded the multicast: core's self time, mostly waiting for the previous sync round"},
	{Name: "evs.multicast_to_safe_ms", Unit: "ms", Better: "lower", About: "engine multicast until evs emits its Safe delivery at the home replica"},
	{Name: "core.safe_to_reply_ms", Unit: "ms", Better: "lower", About: "Safe delivery until the reply is seen: engine queueing, decode, green apply, reply"},
	{Name: "trace.commit_p50_ms", Unit: "ms", Better: "lower", About: "median root span of the attributed commits, decorators in"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", About: "traced against untraced commit_p50_ms in the same process"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower", About: "paced commits no multicast/delivery pair fitted"},
	// Counts per acknowledged write, cluster-wide, from the decorators.
	{Name: "storage.appends_per_op", Unit: "count", Better: "lower", About: "Log.Append calls"},
	{Name: "storage.syncs_per_op", Unit: "count", Better: "lower", About: "Log.Sync calls"},
	{Name: "storage.wal_bytes_per_op", Unit: "B", Better: "lower", About: "bytes appended to the WALs"},
	{Name: "storage.wal_amplification", Unit: "ratio", Better: "lower", About: "WAL bytes per byte of update payload (5 replicas each log an action more than once, as JSON)"},
	{Name: "core.actions_per_multicast", Unit: "count", Better: "higher", About: "acknowledged writes per engine multicast: the batching factor"},
	{Name: "evs.deliveries_per_op", Unit: "count", Better: "lower", About: "Delivery events handed to engines"},
	{Name: "transport.sends_per_op", Unit: "count", Better: "lower", About: "unicasts evs handed to the transport"},
	{Name: "transport.multicasts_per_op", Unit: "count", Better: "lower", About: "multicasts evs handed to the transport"},
	{Name: "transport.bytes_per_op", Unit: "B", Better: "lower", About: "payload bytes times destinations"},
	{Name: "transport.dropped_total", Unit: "count", Better: "lower", About: "memnet Stats Dropped + Overflow over the traced load; 0 expected outside partition_heal"},
	// Fault cycles of a traced run: partition_heal's own, or three borrowed
	// from it. Medians over the cycles.
	{Name: "evs.view_change_ms", Unit: "ms", Better: "lower", About: "Partition call until the last majority member has the majority's regular configuration"},
	{Name: "core.heal_catchup_ms", Unit: "ms", Better: "lower", About: "Heal call until the minority has the green count the majority had at the heal"},
	{Name: "core.retrans_multicasts_per_heal", Unit: "count", Better: "lower", About: "engine multicasts, cluster-wide, between the Heal call and all replicas RegPrim: state exchange, retransmission, construct"},
	{Name: "partition_stall_ms", Unit: "ms", Better: "lower", About: "worst due-to-reply latency among writes due in the 500 ms after a partition (or until the heal)"},
	{Name: "heal_stall_ms", Unit: "ms", Better: "lower", About: "the same, after a heal"},
	// The untraced baseline phase of the traced run.
	{Name: "loadgen.max_late_ms", Unit: "ms", Better: "lower", About: "how late the generator sent its latest write"},
	{Name: "loadgen.late_share", Unit: "ratio", Better: "lower", About: "writes sent more than 1 ms late (a blocked SubmitAsync delays the writes behind it)"},
	{Name: "loadgen.commit_p99_ms", Unit: "ms", Better: "lower", About: "99th percentile commit; swings too much between runs to carry a bound"},
	{Name: "loadgen.commit_mean_ms", Unit: "ms", Better: "lower", About: "mean commit: the one latency figure the rare long stall (a view change, a collection) moves, and for that reason too unsteady on apply_heavy to carry a bound"},
	{Name: "slo_miss_ratio", Unit: "ratio", Better: "lower", About: "paced writes that failed, were refused or took more than 25 ms from their due time"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", About: "writes that failed, were refused or timed out, of those attempted"},
	{Name: "read_p50_us", Unit: "us", Better: "lower", About: "one weak or dirty get (a burst of 64, timed together, divided by 64), median over the paced phase's bursts"},
	{Name: "read_p95_us", Unit: "us", Better: "lower", About: "the same, 95th percentile over bursts; steady only on read_mostly, where there are 6000 bursts"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", About: "render replica 0's registry after the traced load and parse it with obs.ParseExposition"},
	{Name: "obs.scrape_bytes", Unit: "B", Better: "lower", About: "size of that exposition"},
	// Isolated probes, workload-independent.
	{Name: "db.apply_batch64_us", Unit: "us", Better: "lower", About: "ApplyBatch of 64 updates of 16 sets on 100k keys"},
	{Name: "db.apply_parallel_batch64_us", Unit: "us", Better: "lower", About: "the same through ApplyBatchParallel"},
	{Name: "db.apply_dirty_us", Unit: "us", Better: "lower", About: "ApplyDirty of one 16-set update"},
	{Name: "db.query_green_ns", Unit: "ns", Better: "lower", About: "QueryGreen get"},
	{Name: "db.query_dirty_ns", Unit: "ns", Better: "lower", About: "QueryDirty get"},
	{Name: "db.prefix_10k_us", Unit: "us", Better: "lower", About: "prefix query on 10k keys (today a sort of every key)"},
	{Name: "db.snapshot_100k_ms", Unit: "ms", Better: "lower", About: "Snapshot of 100k keys"},
	{Name: "db.restore_100k_ms", Unit: "ms", Better: "lower", About: "Restore of that snapshot"},
	{Name: "storage.memlog_append_ns", Unit: "ns", Better: "lower", About: "MemLog.Append of 256 B"},
	{Name: "storage.filelog_append_sync_us", Unit: "us", Better: "lower", About: "FileLog append + fsync in the checkout: the sandbox's disk, not a device"},
	{Name: "evs.safe_idle_ms", Unit: "ms", Better: "lower", About: "one Safe multicast at a time, 5 nodes, until its own delivery"},
	{Name: "evs.agreed_idle_ms", Unit: "ms", Better: "lower", About: "the same with Agreed delivery"},
	{Name: "evs.safe_stream_msgs_s", Unit: "1/s", Better: "higher", About: "20k Safe multicasts of 200 B from one sender, 512 outstanding"},
	{Name: "core.solo_commit_p50_ms", Unit: "ms", Better: "lower", About: "one replica, 2 ms forced write, one write at a time: the single-node baseline"},
	{Name: "core.cold_restart_ms", Unit: "ms", Better: "lower", About: "3 replicas, 20k actions, crash all, until all are RegPrim again"},
	{Name: "tcpnet.rtt_us", Unit: "us", Better: "lower", About: "round trip between two tcpnet nodes on loopback"},
	{Name: "tcpnet.stream_mb_s", Unit: "MB/s", Better: "higher", About: "5000 frames of 4 KiB one way"},
	{Name: "httpapi.weak_get_p50_us", Unit: "us", Better: "lower", About: "internal/client weak get over httpapi, one connection: pure edge cost"},
	{Name: "httpapi.set_p50_ms", Unit: "ms", Better: "lower", About: "internal/client set over httpapi on one replica of 3"},
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return strings.Join(names, " | ")
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadFile `json:"workloads"`
	EndToEnd   []metricFile   `json:"end_to_end"`
	PerLayer   []layerFile    `json:"per_layer"`
}

type workloadFile struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricFile struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerFile struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// printSpec writes BENCHMARK.json from the definitions above, so the file
// and the program cannot name different metrics.
func printSpec(w io.Writer) int {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, s := range specs {
		f.Workloads = append(f.Workloads, workloadFile{Name: s.Name, Why: s.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, metricFile{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerFile{m.Name, m.Unit, m.Better})
	}
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return 1
	}
	fmt.Fprintf(w, "%s\n", buf)
	return 0
}
