package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"evsdb/internal/core"
	"evsdb/internal/db"
	"evsdb/internal/storage"
	"evsdb/internal/workload"
)

// spec is one workload: a cluster shape, a write stream and its phases.
// Every field is written into the result file, so two files are comparable
// or visibly not. Phase lengths are shares of -seconds.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	Replicas      int     `json:"replicas"`
	Sync          string  `json:"sync"` // "forced" or "delayed"
	SyncLatencyMs float64 `json:"sync_latency_ms"`
	Homes         []int   `json:"homes"` // replicas that take writes, round-robin

	Op           string `json:"op"` // noop | set | unique_set
	OpsPerAction int    `json:"ops_per_action"`
	ValueBytes   int    `json:"value_bytes"`
	KeySpace     int    `json:"key_space"`    // keys the writes choose from, uniformly
	PreloadKeys  int    `json:"preload_keys"` // keys written before timing; the reader reads these

	WarmShare  float64 `json:"warm_share"`
	PacedRate  float64 `json:"paced_ops_s"` // open loop
	PacedShare float64 `json:"paced_share"`
	// The closed-loop phase ends at its share of -seconds or at its op cap,
	// whichever comes first: the in-process cluster keeps every action's
	// history, so a run is bounded in ops, not just in time.
	SaturateWindow int     `json:"saturate_window"`
	SaturateShare  float64 `json:"saturate_share"`
	SaturateMaxOps int     `json:"saturate_max_ops"`

	ReadEveryMs float64 `json:"read_every_ms"` // one burst of 64 gets per period

	// Cycles of {partition majority|minority, heal} laid over the paced
	// phase; the first third of a cycle is partitioned.
	Cycles   int   `json:"fault_cycles"`
	Majority []int `json:"majority,omitempty"`
	Minority []int `json:"minority,omitempty"`

	// inject makes the run fail on purpose, for the checker's negative
	// tests: lying-sync | diverge | stuck-heal. catchUp, when set, replaces
	// catchUpTimeout so that a stuck heal fails a test quickly.
	inject  string
	catchUp time.Duration
}

// sloLimit is the stated latency limit on a paced commit.
const sloLimit = 25 * time.Millisecond

var allReplicas5 = []int{0, 1, 2, 3, 4}

// specs are the four workloads. Their names are fixed: later issues cite
// them.
var specs = []spec{
	{
		Name: "strict_write",
		Why: "Paper sec. 7 stream: 200 B no-op actions, 5 replicas, 2 ms forced write, 100 us links, so ordering " +
			"(forced write, Safe delivery, wire and WAL codecs) does the work and internal/db almost none",
		Replicas: 5, Sync: "forced", SyncLatencyMs: 2, Homes: allReplicas5,
		Op: "noop", OpsPerAction: 1, ValueBytes: 200, PreloadKeys: 1000,
		WarmShare: 0.05, PacedRate: 5000, PacedShare: 0.5,
		SaturateWindow: 1024, SaturateShare: 0.3, SaturateMaxOps: 100000,
		ReadEveryMs: 20,
	},
	{
		Name: "apply_heavy",
		Why: "16 sets per action on 100k keys, 3 replicas, delayed writes, 100 us links: internal/db apply and " +
			"per-op encode/decode do the work and the forced-write wait none, the opposite of strict_write",
		Replicas: 3, Sync: "delayed", Homes: []int{0, 1, 2},
		Op: "set", OpsPerAction: 16, ValueBytes: 64, KeySpace: 100000, PreloadKeys: 100000,
		WarmShare: 0.05, PacedRate: 1500, PacedShare: 0.5,
		SaturateWindow: 512, SaturateShare: 0.3, SaturateMaxOps: 20000,
		ReadEveryMs: 20,
	},
	{
		Name: "read_mostly",
		Why: "32k weak and dirty gets/s against 1000 single-set writes/s on 5 replicas: queries take db's read " +
			"lock while green apply takes the write lock, so read and commit latency can move apart",
		Replicas: 5, Sync: "forced", SyncLatencyMs: 2, Homes: allReplicas5,
		Op: "set", OpsPerAction: 1, ValueBytes: 64, KeySpace: 10000, PreloadKeys: 10000,
		WarmShare: 0.05, PacedRate: 1000, PacedShare: 0.6,
		SaturateWindow: 256, SaturateShare: 0.2, SaturateMaxOps: 50000,
		ReadEveryMs: 2,
	},
	{
		Name: "partition_heal",
		Why: "Ten 3|2 partitions and heals under a fixed write schedule, then a crash of all 5 replicas: the only " +
			"workload where core's exchange and retransmission and evs membership do the work",
		Replicas: 5, Sync: "forced", SyncLatencyMs: 2, Homes: []int{0, 1, 2},
		Op: "unique_set", OpsPerAction: 1, ValueBytes: 64, PreloadKeys: 1000,
		WarmShare: 0.05, PacedRate: 700, PacedShare: 0.75,
		SaturateWindow: 256, SaturateShare: 0.15, SaturateMaxOps: 50000,
		ReadEveryMs: 20,
		Cycles:      10, Majority: []int{0, 1, 2}, Minority: []int{3, 4},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) stackConfig(sm seams) stackConfig {
	cfg := stackConfig{Replicas: s.Replicas, Sync: storage.SyncForced, seams: sm,
		SyncLatency: time.Duration(s.SyncLatencyMs * float64(time.Millisecond))}
	if s.Sync == "delayed" {
		cfg.Sync = storage.SyncDelayed
	}
	return cfg
}

// plan is a spec's phases at a given run length.
type plan struct {
	warm, paced, saturate time.Duration
	cycles                int
}

// minCycle keeps a fault cycle long enough for a view change and a heal to
// finish inside it; a short (-quick) run gets fewer cycles, not shorter
// ones.
const minCycle = 300 * time.Millisecond

func (s spec) plan(seconds float64) plan {
	d := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	p := plan{warm: d(s.WarmShare), paced: d(s.PacedShare), saturate: d(s.SaturateShare)}
	if s.Cycles > 0 {
		p.cycles = max(1, min(s.Cycles, int(p.paced/minCycle)))
	}
	return p
}

func keyName(i int) string { return fmt.Sprintf("key-%06d", i) }

// inputs is everything a run feeds the cluster, generated from the seed
// before timing starts: the program under test sees only these bytes.
type inputs struct {
	updates [][]byte
	homes   []uint8
	// planned[k] is the highest sequence number any generated write gives
	// key k (0 is the preload), the bound a read's value is checked against.
	planned []uint32
	// unique_set only: op i writes uniqueKeys[i] = uniqueVals[i].
	uniqueKeys, uniqueVals []string
	reads                  []readPlan
	payloadBytes           int // bytes of update payload in the first op, for write amplification
}

const padLetters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

func pad(rng *rand.Rand, b *strings.Builder, upTo int) {
	for b.Len() < upTo {
		b.WriteByte(padLetters[rng.Intn(len(padLetters))])
	}
}

// value embeds the key and its write sequence, so a reader can tell a value
// the writer issued for this key from anything else.
func value(rng *rand.Rand, key string, seq uint32, size int) string {
	var b strings.Builder
	b.WriteString(key)
	b.WriteByte('#')
	b.WriteString(strconv.FormatUint(uint64(seq), 10))
	b.WriteByte('#')
	pad(rng, &b, size)
	return b.String()
}

// generate builds n write actions and a read plan from the seed.
func (s spec) generate(seed int64, n int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		updates: make([][]byte, n),
		homes:   make([]uint8, n),
		planned: make([]uint32, max(s.KeySpace, s.PreloadKeys)),
	}
	keys := &workload.Uniform{N: max(s.KeySpace, 1), Rng: rng}
	ops := make([]db.Op, s.OpsPerAction)
	for i := 0; i < n; i++ {
		in.homes[i] = uint8(s.Homes[i%len(s.Homes)])
		switch s.Op {
		case "noop":
			var b strings.Builder
			pad(rng, &b, s.ValueBytes)
			ops[0] = db.Noop(b.String())
		case "set":
			for j := range ops {
				key := keys.Next()
				k, _ := strconv.Atoi(key[len("key-"):])
				in.planned[k]++
				ops[j] = db.Set(key, value(rng, key, in.planned[k], s.ValueBytes))
			}
		case "unique_set":
			key := fmt.Sprintf("u-%07d", i)
			val := value(rng, key, 1, s.ValueBytes)
			in.uniqueKeys = append(in.uniqueKeys, key)
			in.uniqueVals = append(in.uniqueVals, val)
			ops[0] = db.Set(key, val)
		}
		in.updates[i] = db.EncodeUpdate(ops...)
	}
	if n > 0 {
		in.payloadBytes = len(in.updates[0])
	}
	// Reads: 80 % weak, 20 % dirty, replicas round-robin, keys uniform over
	// the preloaded ones. Long enough that bursts do not repeat soon.
	in.reads = make([]readPlan, 256*readBurst)
	queries := make(map[int][]byte)
	for i := range in.reads {
		k := rng.Intn(s.PreloadKeys)
		if queries[k] == nil {
			queries[k] = db.Get(keyName(k))
		}
		level := core.QueryWeak
		if rng.Intn(5) == 0 {
			level = core.QueryDirty
		}
		in.reads[i] = readPlan{key: k, query: queries[k], level: level, replica: i % s.Replicas}
	}
	return in
}

// validRead reports whether res may answer a get of key k: found, carrying
// the key, with a sequence number the writer issues for it.
func (in *inputs) validRead(k int, res db.Result) bool {
	if !res.Found {
		return false
	}
	rest, ok := strings.CutPrefix(res.Value, keyName(k)+"#")
	if !ok {
		return false
	}
	num, _, ok := strings.Cut(rest, "#")
	if !ok {
		return false
	}
	seq, err := strconv.ParseUint(num, 10, 32)
	return err == nil && uint32(seq) <= in.planned[k]
}

// preloadBatch is how many sets one preload action carries.
const preloadBatch = 64

// preload writes keys [0, n) with sequence 0 through replica 0 and waits
// until every replica has applied them.
func preload(st *stack, n int, valueBytes int, seed int64) error {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var updates [][]byte
	for lo := 0; lo < n; lo += preloadBatch {
		ops := make([]db.Op, 0, preloadBatch)
		for k := lo; k < min(lo+preloadBatch, n); k++ {
			ops = append(ops, db.Set(keyName(k), value(rng, keyName(k), 0, valueBytes)))
		}
		updates = append(updates, db.EncodeUpdate(ops...))
	}
	g := newLoadgen(st.submitters(), updates, make([]uint8, len(updates)), time.Now())
	g.closedLoop(0, len(updates), 32, time.Minute)
	if err := g.finish(); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	for i, state := range g.log.state {
		if state != opOK {
			return fmt.Errorf("preload: action %d not acknowledged (state %d): %s", i, state, st.states())
		}
	}
	return st.waitGreen(uint64(len(updates)), 10*time.Second, st.all()...)
}
