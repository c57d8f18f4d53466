// Package db implements the deterministic in-memory database that sits
// behind the replication engine.
//
// The engine is deliberately decoupled from the database (paper § 1: "a
// generic replication engine which runs outside the database"); it only
// requires deterministic application of ordered actions plus snapshot and
// restore for online join transfers (§ 5.1). This package provides:
//
//   - a key-value store with a small deterministic command language
//     covering the paper's § 6 semantics: plain updates, commutative
//     increments, timestamped writes, active (procedure) actions, and
//     check-and-apply for interactive transactions;
//   - snapshot/restore for state transfer to joining replicas;
//   - a dirty overlay holding the effects of red actions, serving dirty
//     queries in non-primary components.
package db

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Op is one deterministic database operation.
type Op struct {
	// Kind is one of "set", "del", "add", "tsset", "cas", "proc", "noop".
	Kind string
	// Key is the target key for set/del/add/tsset.
	Key string
	// Value is the new value for set, the delta for add, the candidate
	// for tsset.
	Value string
	// TS orders tsset writes: the highest timestamp wins regardless of
	// arrival order (paper § 6 "timestamp update semantics").
	TS int64
	// Expect guards cas: all listed key/value pairs must match the
	// current state or the whole update aborts deterministically
	// (paper § 6 "interactive transactions").
	Expect map[string]string
	// Ops is the body applied by cas when the guard holds.
	Ops []Op
	// Proc names a registered procedure for proc; Args is its input.
	Proc string
	Args []byte
}

// EncodeUpdate serializes ops into an action update payload (the binary
// format in codec.go).
func EncodeUpdate(ops ...Op) []byte {
	return appendOps(append(make([]byte, 0, 64), updateMagic, codecVersion), ops)
}

// Set returns a plain write op.
func Set(key, value string) Op { return Op{Kind: "set", Key: key, Value: value} }

// Del returns a delete op.
func Del(key string) Op { return Op{Kind: "del", Key: key} }

// Add returns a commutative integer increment op.
func Add(key string, delta int64) Op {
	return Op{Kind: "add", Key: key, Value: strconv.FormatInt(delta, 10)}
}

// TSSet returns a timestamped write: applied only if ts exceeds the
// stored timestamp for the key.
func TSSet(key, value string, ts int64) Op {
	return Op{Kind: "tsset", Key: key, Value: value, TS: ts}
}

// CAS returns a guarded update: body applies only if every expected
// key/value matches, mimicking an interactive transaction's validity
// check.
func CAS(expect map[string]string, body ...Op) Op {
	return Op{Kind: "cas", Expect: expect, Ops: body}
}

// Proc returns an active action invoking a registered procedure.
func Proc(name string, args []byte) Op { return Op{Kind: "proc", Proc: name, Args: args} }

// Noop returns an op that carries padding bytes but has no effect,
// for engine-only benchmarking.
func Noop(padding string) Op { return Op{Kind: "noop", Value: padding} }

// Query is the encoded query part of an action.
type Query struct {
	// Kind is "get" or "prefix".
	Kind string
	Key  string
}

// EncodeQuery serializes a query payload (the binary format in
// codec.go).
func EncodeQuery(q Query) []byte {
	buf := append(make([]byte, 0, 4+len(q.Key)), queryMagic, codecVersion, kindCode(queryNames[:], q.Kind))
	return putString(buf, q.Key)
}

// Get returns a point-lookup query payload.
func Get(key string) []byte { return EncodeQuery(Query{Kind: "get", Key: key}) }

// Prefix returns a range query payload over keys with the given prefix.
func Prefix(p string) []byte { return EncodeQuery(Query{Kind: "prefix", Key: p}) }

// Result is a query answer.
type Result struct {
	Found  bool              `json:"found"`
	Value  string            `json:"value,omitempty"`
	Values map[string]string `json:"values,omitempty"`
	// Version is the number of green actions applied to the state the
	// answer was computed from.
	Version uint64 `json:"version"`
	// Dirty marks answers computed from a state that includes red
	// (not globally ordered) actions.
	Dirty bool `json:"dirty"`
}

// Procedure is a deterministic routine invoked at ordering time (§ 6
// "active transactions"). It must depend only on the transaction view and
// its arguments.
type Procedure func(tx *Tx, args []byte) error

// Tx gives a procedure deterministic read/write access.
type Tx struct {
	read  func(key string) (string, bool)
	write map[string]*string // nil value pointer = delete
}

// Get reads a key, observing earlier writes in the same transaction.
func (tx *Tx) Get(key string) (string, bool) {
	if v, ok := tx.write[key]; ok {
		if v == nil {
			return "", false
		}
		return *v, true
	}
	return tx.read(key)
}

// Set writes a key.
func (tx *Tx) Set(key, value string) {
	v := value
	tx.write[key] = &v
}

// Del deletes a key.
func (tx *Tx) Del(key string) { tx.write[key] = nil }

// Database is a deterministic replicated key-value store.
//
// Lock order: applyMu -> mu -> dirtyMu. Green mutators (Apply,
// ApplyBatch, ApplyBatchParallel, Restore) serialize on applyMu and
// touch green state under mu; the dirty overlay lives behind its own
// dirtyMu so red applies and degraded reads only need mu read-side and
// never contend with a green apply in progress.
type Database struct {
	applyMu sync.Mutex // serializes green mutators and oracle mirroring
	mu      sync.RWMutex
	data    map[string]string
	ts      map[string]int64
	version uint64
	procs   map[string]Procedure

	// dirty overlays the green state with red effects for dirty queries.
	dirtyMu      sync.RWMutex
	dirty        map[string]*string
	dirtyTS      map[string]int64
	dirtyApplied uint64

	// workers is the configured parallel-apply width (parallel.go);
	// 0 means the GOMAXPROCS-derived default.
	workers int
	// met holds optional instruments (obs.go).
	met *applyObs
	// oracle is the optional shadow sequential database (oracle.go).
	oracle    *Database
	oracleErr error
}

// New returns an empty database.
func New() *Database {
	return &Database{
		data:  make(map[string]string),
		ts:    make(map[string]int64),
		procs: make(map[string]Procedure),
		dirty: make(map[string]*string),
	}
}

// RegisterProc registers a deterministic procedure. Every replica must
// register the same procedures before applying actions that invoke them.
func (d *Database) RegisterProc(name string, p Procedure) {
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	d.mu.Lock()
	d.procs[name] = p
	d.mu.Unlock()
	if d.oracle != nil {
		d.oracle.RegisterProc(name, p)
	}
}

// Version returns the number of updates applied to the green state.
func (d *Database) Version() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.version
}

// Apply applies an encoded update to the green (consistent) state. A
// deterministic semantic failure (bad encoding, failed CAS guard, failed
// procedure) is an abort: the state advances past the action without
// effects, identically at every replica, and the abort is reported.
func (d *Database) Apply(update []byte) error {
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	d.mu.Lock()
	d.version++
	err := applyUpdate(update, d.data, d.ts, d.procs)
	d.mu.Unlock()
	d.mirrorOne(update, err)
	return err
}

// ApplyBatch applies a run of encoded updates under ONE lock acquisition,
// returning each update's outcome. Equivalent to calling Apply in order —
// the version advances once per update, so a replica that applied the
// same actions singly reports the same version — but the per-update
// locking cost amortizes over the batch (the engine's fused green apply).
// For dependency-aware concurrent application see ApplyBatchParallel.
func (d *Database) ApplyBatch(updates [][]byte) []error {
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	errs := d.applyBatchSeq(updates)
	d.mirrorBatch(updates, errs, false)
	return errs
}

// applyBatchSeq is the sequential apply loop; callers hold applyMu.
func (d *Database) applyBatchSeq(updates [][]byte) []error {
	errs := make([]error, len(updates))
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, u := range updates {
		d.version++
		errs[i] = applyUpdate(u, d.data, d.ts, d.procs)
	}
	return errs
}

// ApplyDirty applies an encoded update to the dirty overlay only; the
// green state is untouched (paper § 6 "dirty query" support). The
// update is evaluated against the layered green+overlay view (no green
// state copy) and its staged effects fold into the overlay atomically:
// a deterministic abort leaves the overlay unchanged. Only mu's read
// side is taken, so red applies never block green queries and only
// wait out the parallel applier's short merge windows.
func (d *Database) ApplyDirty(update []byte) error {
	an := analyzeUpdate(update)
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.dirtyMu.Lock()
	defer d.dirtyMu.Unlock()
	d.dirtyApplied++
	if an.decErr != nil {
		return an.decErr
	}
	readOverlay := func(k string) (string, bool) {
		if v, ok := d.dirty[k]; ok {
			if v == nil {
				return "", false
			}
			return *v, true
		}
		v, ok := d.data[k]
		return v, ok
	}
	readOverlayTS := func(k string) int64 {
		if v, ok := d.dirtyTS[k]; ok {
			return v
		}
		return d.ts[k]
	}
	effs, err := evalOps(an.ops, stateView{readData: readOverlay, readTS: readOverlayTS}, d.procs)
	if err != nil {
		return err
	}
	// Fold effects into the overlay in order, normalizing entries that
	// land back on the green value.
	setK := func(k, v string) {
		if cur, ok := d.data[k]; ok && cur == v {
			delete(d.dirty, k)
		} else {
			val := v
			d.dirty[k] = &val
		}
	}
	for _, e := range effs {
		switch e.kind {
		case effSet:
			setK(e.key, e.val)
		case effDel:
			if _, ok := d.data[e.key]; ok {
				d.dirty[e.key] = nil
			} else {
				delete(d.dirty, e.key)
			}
		case effAdd:
			curStr, _ := readOverlay(e.key)
			cur, _ := strconv.ParseInt(curStr, 10, 64)
			setK(e.key, strconv.FormatInt(cur+e.delta, 10))
		case effTS:
			if e.ts > readOverlayTS(e.key) {
				if d.dirtyTS == nil {
					d.dirtyTS = make(map[string]int64)
				}
				if d.ts[e.key] == e.ts {
					delete(d.dirtyTS, e.key)
				} else {
					d.dirtyTS[e.key] = e.ts
				}
				setK(e.key, e.val)
			}
		}
	}
	return nil
}

// ResetDirty discards the dirty overlay (on rejoining a primary
// component, once red actions obtain their true global order).
func (d *Database) ResetDirty() {
	d.dirtyMu.Lock()
	defer d.dirtyMu.Unlock()
	d.dirty = make(map[string]*string)
	d.dirtyTS = nil
	d.dirtyApplied = 0
}

// QueryGreen answers a query from the consistent green state.
func (d *Database) QueryGreen(query []byte) (Result, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	res, err := runQuery(query, func(k string) (string, bool) {
		v, ok := d.data[k]
		return v, ok
	}, func() []string { return sortedKeys(d.data) })
	if err != nil {
		return Result{}, err
	}
	res.Version = d.version
	return res, nil
}

// QueryDirty answers a query from the green state plus the red overlay.
func (d *Database) QueryDirty(query []byte) (Result, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.dirtyMu.RLock()
	defer d.dirtyMu.RUnlock()
	read := func(k string) (string, bool) {
		if v, ok := d.dirty[k]; ok {
			if v == nil {
				return "", false
			}
			return *v, true
		}
		v, ok := d.data[k]
		return v, ok
	}
	keys := func() []string {
		set := make(map[string]bool, len(d.data)+len(d.dirty))
		for k := range d.data {
			set[k] = true
		}
		for k, v := range d.dirty {
			if v == nil {
				delete(set, k)
			} else {
				set[k] = true
			}
		}
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	res, err := runQuery(query, read, keys)
	if err != nil {
		return Result{}, err
	}
	res.Version = d.version
	res.Dirty = d.dirtyApplied > 0
	return res, nil
}

// snapshot is the serialized database state.
type snapshot struct {
	Data    map[string]string `json:"data"`
	TS      map[string]int64  `json:"ts"`
	Version uint64            `json:"version"`
}

// Snapshot serializes the green state for transfer to a joining replica.
func (d *Database) Snapshot() []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	buf, err := json.Marshal(snapshot{Data: d.data, TS: d.ts, Version: d.version})
	if err != nil {
		panic(fmt.Sprintf("db: marshal snapshot: %v", err))
	}
	return buf
}

// Restore replaces the green state with a snapshot.
func (d *Database) Restore(buf []byte) error {
	var s snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return fmt.Errorf("restore snapshot: %w", err)
	}
	d.applyMu.Lock()
	defer d.applyMu.Unlock()
	d.mu.Lock()
	d.data = s.Data
	if d.data == nil {
		d.data = make(map[string]string)
	}
	d.ts = s.TS
	if d.ts == nil {
		d.ts = make(map[string]int64)
	}
	d.version = s.Version
	d.mu.Unlock()
	d.dirtyMu.Lock()
	d.dirty = make(map[string]*string)
	d.dirtyTS = nil
	d.dirtyApplied = 0
	d.dirtyMu.Unlock()
	d.mirrorRestore(buf)
	return nil
}

// Len returns the number of keys in the green state.
func (d *Database) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.data)
}

// applyUpdate runs the ops against the given mutable maps.
func applyUpdate(update []byte, data map[string]string, ts map[string]int64, procs map[string]Procedure) error {
	ops, err := decodeUpdate(update)
	if err != nil {
		return err
	}
	return applyOps(ops, data, ts, procs)
}

func applyOps(ops []Op, data map[string]string, ts map[string]int64, procs map[string]Procedure) error {
	for _, op := range ops {
		switch op.Kind {
		case "noop":
			// Carries payload without touching state; used by benchmarks
			// that measure the replication engine without DB interaction
			// (paper § 7 does exactly this).
		case "set":
			data[op.Key] = op.Value
		case "del":
			delete(data, op.Key)
		case "add":
			delta, err := strconv.ParseInt(op.Value, 10, 64)
			if err != nil {
				return fmt.Errorf("add %q: bad delta %q", op.Key, op.Value)
			}
			cur, _ := strconv.ParseInt(data[op.Key], 10, 64)
			data[op.Key] = strconv.FormatInt(cur+delta, 10)
		case "tsset":
			if op.TS > ts[op.Key] {
				ts[op.Key] = op.TS
				data[op.Key] = op.Value
			}
		case "cas":
			ok := true
			for k, want := range op.Expect {
				if got, found := data[k]; !found || got != want {
					ok = false
					break
				}
			}
			if !ok {
				return fmt.Errorf("cas aborted: guard mismatch")
			}
			if err := applyOps(op.Ops, data, ts, procs); err != nil {
				return err
			}
		case "proc":
			p, ok := procs[op.Proc]
			if !ok {
				return fmt.Errorf("proc %q not registered", op.Proc)
			}
			tx := &Tx{
				read: func(k string) (string, bool) {
					v, ok := data[k]
					return v, ok
				},
				write: make(map[string]*string),
			}
			if err := p(tx, op.Args); err != nil {
				return fmt.Errorf("proc %q: %w", op.Proc, err)
			}
			for k, v := range tx.write {
				if v == nil {
					delete(data, k)
				} else {
					data[k] = *v
				}
			}
		default:
			return fmt.Errorf("unknown op kind %q", op.Kind)
		}
	}
	return nil
}

func runQuery(query []byte, read func(string) (string, bool), keys func() []string) (Result, error) {
	q, err := decodeQuery(query)
	if err != nil {
		return Result{}, err
	}
	switch q.Kind {
	case "get":
		v, ok := read(q.Key)
		return Result{Found: ok, Value: v}, nil
	case "prefix":
		out := make(map[string]string)
		for _, k := range keys() {
			if len(k) >= len(q.Key) && k[:len(q.Key)] == q.Key {
				if v, ok := read(k); ok {
					out[k] = v
				}
			}
		}
		return Result{Found: len(out) > 0, Values: out}, nil
	default:
		return Result{}, fmt.Errorf("unknown query kind %q", q.Kind)
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
