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

// staged is one pending write: a value, or a delete.
type staged struct {
	val string
	del bool
}

// write is one staged write of the running update; ts is the tsset
// timestamp it carries, 0 for other writes.
type write struct {
	key string
	staged
	ts int64
}

// Tx is the state one update runs against: the green maps, the dirty
// overlay when the update is red, and the writes the update has staged
// so far, in op order. Every op, and every procedure an op invokes,
// reads and writes through it. The caller commits the staged writes
// only when the whole update succeeds, so an aborted update has no
// effects. Reads scan the staged writes newest first: an update stages
// few, and this costs less than a map per update would.
type Tx struct {
	data   map[string]string
	ts     map[string]int64
	over   map[string]staged // dirty overlay; nil for green apply
	overTS map[string]int64
	writes []write // emptied before each update
	procs  map[string]Procedure
}

// Get reads a key, observing earlier writes in the same update.
func (tx *Tx) Get(key string) (string, bool) {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if w := &tx.writes[i]; w.key == key {
			return w.val, !w.del
		}
	}
	if s, ok := tx.over[key]; ok {
		return s.val, !s.del
	}
	v, ok := tx.data[key]
	return v, ok
}

// Set writes a key.
func (tx *Tx) Set(key, value string) {
	tx.writes = append(tx.writes, write{key: key, staged: staged{val: value}})
}

// Del deletes a key.
func (tx *Tx) Del(key string) {
	tx.writes = append(tx.writes, write{key: key, staged: staged{del: true}})
}

// stamp reads a key's tsset timestamp through the same layers as Get.
func (tx *Tx) stamp(key string) int64 {
	for i := len(tx.writes) - 1; i >= 0; i-- {
		if w := &tx.writes[i]; w.key == key && w.ts != 0 {
			return w.ts
		}
	}
	if t, ok := tx.overTS[key]; ok {
		return t
	}
	return tx.ts[key]
}

// run decodes update and stages its ops, after dropping whatever the
// previous update staged.
func (tx *Tx) run(update []byte) error {
	tx.writes = tx.writes[:0]
	ops, err := decodeUpdate(update)
	if err != nil {
		return err
	}
	return tx.exec(ops)
}

// exec is the op interpreter: green and red updates alike run here.
func (tx *Tx) exec(ops []Op) error {
	for _, op := range ops {
		switch op.Kind {
		case "noop":
			// Carries payload without touching state; used by benchmarks
			// that measure the replication engine without DB interaction
			// (paper § 7 does exactly this).
		case "set":
			tx.Set(op.Key, op.Value)
		case "del":
			tx.Del(op.Key)
		case "add":
			delta, err := strconv.ParseInt(op.Value, 10, 64)
			if err != nil {
				return fmt.Errorf("add %q: bad delta %q", op.Key, op.Value)
			}
			cur, _ := tx.Get(op.Key)
			n, _ := strconv.ParseInt(cur, 10, 64)
			tx.Set(op.Key, strconv.FormatInt(n+delta, 10))
		case "tsset":
			if op.TS > tx.stamp(op.Key) {
				tx.writes = append(tx.writes, write{key: op.Key, staged: staged{val: op.Value}, ts: op.TS})
			}
		case "cas":
			for k, want := range op.Expect {
				if got, found := tx.Get(k); !found || got != want {
					return fmt.Errorf("cas aborted: guard mismatch")
				}
			}
			if err := tx.exec(op.Ops); err != nil {
				return err
			}
		case "proc":
			p, ok := tx.procs[op.Proc]
			if !ok {
				return fmt.Errorf("proc %q not registered", op.Proc)
			}
			if err := p(tx, op.Args); err != nil {
				return fmt.Errorf("proc %q: %w", op.Proc, err)
			}
		default:
			return fmt.Errorf("unknown op kind %q", op.Kind)
		}
	}
	return nil
}

// Database is a deterministic replicated key-value store.
//
// Green apply is sequential: Apply, ApplyBatch and Restore hold mu for
// writing. The dirty overlay lives behind its own dirtyMu, taken after
// mu, so red applies and degraded reads only need mu read-side.
type Database struct {
	mu      sync.RWMutex
	data    map[string]string
	ts      map[string]int64
	version uint64
	procs   map[string]Procedure

	// dirty overlays the green state with red effects for dirty queries.
	dirtyMu      sync.RWMutex
	dirty        map[string]staged
	dirtyTS      map[string]int64
	dirtyApplied uint64

	// tx is the transaction every apply runs in, kept so its staged
	// writes reuse one buffer. Green apply holds mu and red apply holds
	// mu's read side plus dirtyMu, so no two applies share it at once.
	tx Tx
}

// New returns an empty database.
func New() *Database {
	d := &Database{
		data:  make(map[string]string),
		ts:    make(map[string]int64),
		procs: make(map[string]Procedure),
	}
	d.ResetDirty()
	return d
}

// RegisterProc registers a deterministic procedure. Every replica must
// register the same procedures before applying actions that invoke them.
func (d *Database) RegisterProc(name string, p Procedure) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.procs[name] = p
}

// Version returns the number of updates applied to the green state.
func (d *Database) Version() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.version
}

// newTx readies d.tx over the green state and the given overlay (nil
// for green apply). Callers hold mu, and dirtyMu for an overlay.
func (d *Database) newTx(over map[string]staged, overTS map[string]int64) *Tx {
	d.tx = Tx{data: d.data, ts: d.ts, over: over, overTS: overTS, procs: d.procs, writes: d.tx.writes}
	return &d.tx
}

// Apply applies an encoded update to the green (consistent) state. A
// deterministic semantic failure (bad encoding, failed CAS guard, failed
// procedure) is an abort: the state advances past the action without
// effects, identically at every replica, and the abort is reported.
func (d *Database) Apply(update []byte) error {
	return d.ApplyBatch([][]byte{update})[0]
}

// ApplyBatch applies a run of encoded updates under ONE lock acquisition,
// returning each update's outcome. Equivalent to calling Apply in order —
// the version advances once per update, so a replica that applied the
// same actions singly reports the same version — but the per-update
// locking cost amortizes over the batch (the engine's fused green apply).
func (d *Database) ApplyBatch(updates [][]byte) []error {
	errs := make([]error, len(updates))
	d.mu.Lock()
	defer d.mu.Unlock()
	tx := d.newTx(nil, nil)
	for i, u := range updates {
		d.version++
		if errs[i] = tx.run(u); errs[i] == nil {
			d.commitGreen(tx)
		}
	}
	return errs
}

// ApplyBatchParallel is ApplyBatch.
//
// Deprecated: green apply is sequential; call ApplyBatch.
func (d *Database) ApplyBatchParallel(updates [][]byte) []error { return d.ApplyBatch(updates) }

// commitGreen writes a successful update's staged writes into the green
// maps. Callers hold mu.
func (d *Database) commitGreen(tx *Tx) {
	for _, w := range tx.writes {
		if w.del {
			delete(d.data, w.key)
		} else {
			d.data[w.key] = w.val
		}
		if w.ts != 0 {
			d.ts[w.key] = w.ts
		}
	}
}

// ApplyDirty applies an encoded update to the dirty overlay only; the
// green state is untouched (paper § 6 "dirty query" support). The
// update runs against the layered green+overlay view and, like a green
// update, commits only if it succeeds. Only mu's read side is taken, so
// red applies never block green queries.
func (d *Database) ApplyDirty(update []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.dirtyMu.Lock()
	defer d.dirtyMu.Unlock()
	d.dirtyApplied++
	tx := d.newTx(d.dirty, d.dirtyTS)
	if err := tx.run(update); err != nil {
		return err
	}
	// Fold the staged writes into the overlay, dropping entries that
	// land back on the green value.
	for _, w := range tx.writes {
		if v, ok := d.data[w.key]; w.staged == (staged{val: v, del: !ok}) {
			delete(d.dirty, w.key)
		} else {
			d.dirty[w.key] = w.staged
		}
		if w.ts == 0 {
			continue
		}
		if d.ts[w.key] == w.ts {
			delete(d.dirtyTS, w.key)
		} else {
			d.dirtyTS[w.key] = w.ts
		}
	}
	return nil
}

// ResetDirty discards the dirty overlay (on rejoining a primary
// component, once red actions obtain their true global order).
func (d *Database) ResetDirty() {
	d.dirtyMu.Lock()
	defer d.dirtyMu.Unlock()
	d.dirty = make(map[string]staged)
	d.dirtyTS = make(map[string]int64)
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
	view := Tx{data: d.data, over: d.dirty}
	keys := func() []string {
		set := make(map[string]bool, len(d.data)+len(d.dirty))
		for k := range d.data {
			set[k] = true
		}
		for k, s := range d.dirty {
			if s.del {
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
	res, err := runQuery(query, view.Get, keys)
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

// Restore replaces the green state with a snapshot and discards the
// dirty overlay.
func (d *Database) Restore(buf []byte) error {
	var s snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return fmt.Errorf("restore snapshot: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.data = s.Data
	if d.data == nil {
		d.data = make(map[string]string)
	}
	d.ts = s.TS
	if d.ts == nil {
		d.ts = make(map[string]int64)
	}
	d.version = s.Version
	d.ResetDirty()
	return nil
}

// Len returns the number of keys in the green state.
func (d *Database) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.data)
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
