// Package storage provides the stable-storage abstraction the replication
// engine writes to at its "** sync to disk" points (paper, Appendix A).
//
// The engine's correctness across crashes depends on what survives: a
// server that crashes while vulnerable must find, on recovery, exactly the
// records it forced to disk. The in-memory implementation models this
// precisely — records are split into a synced prefix and an unsynced tail,
// a simulated crash discards the tail — while also charging a configurable
// latency per forced sync so benchmarks reproduce the paper's disk-bound
// results (Fig. 5(b)). A file-backed implementation performs real fsyncs
// for deployments.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("storage: log closed")

// SyncPolicy selects how Sync behaves.
type SyncPolicy int

const (
	// SyncForced makes Sync a durable write barrier (and charges the
	// configured latency). This is the paper's "forced disk write".
	SyncForced SyncPolicy = iota + 1
	// SyncDelayed makes Sync return immediately; data is made durable in
	// the background. Corresponds to the paper's "delayed writes" run,
	// trading a bounded durability window for throughput.
	SyncDelayed
	// SyncNone disables durability accounting entirely (testing).
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncForced:
		return "forced"
	case SyncDelayed:
		return "delayed"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Log is an append-only record log with an explicit sync barrier.
type Log interface {
	// Append adds one opaque record to the log tail. Implementations must
	// not retain record: they copy it or fully consume it before
	// returning, because the engine encodes into a pooled buffer that it
	// reuses as soon as Append returns.
	Append(record []byte) error
	// Sync makes all appended records durable, per the sync policy.
	Sync() error
	// Records returns every durable record in append order. Used on
	// recovery.
	Records() ([][]byte, error)
	// Close releases resources. Idempotent.
	Close() error
}

// Compactable is implemented by logs that support atomic replacement of
// their whole contents — used by checkpointing to truncate history.
type Compactable interface {
	// Rewrite atomically replaces the log's durable contents.
	Rewrite(records [][]byte) error
}

// Options configures a log.
type Options struct {
	// Policy selects the Sync behaviour. Default SyncForced.
	Policy SyncPolicy
	// SyncLatency is the simulated cost of one forced write. It models
	// the rotational/SSD fsync the paper's evaluation is dominated by.
	// Applied by MemLog on every forced Sync; added by FileLog on top of
	// the real fsync (usually left zero there).
	SyncLatency time.Duration
}

func (o Options) withDefaults() Options {
	if o.Policy == 0 {
		o.Policy = SyncForced
	}
	return o
}

// MemLog is an in-memory Log with crash semantics: records appended but
// not yet synced are lost by Crash.
//
// Sync implements group commit: one physical sync (one latency charge)
// covers every record appended before it started, and concurrent callers
// share rounds — exactly how production write-ahead logs amortize fsync.
type MemLog struct {
	opts Options

	mu        sync.Mutex
	cond      *sync.Cond
	synced    [][]byte
	unsynced  [][]byte
	closed    bool
	syncing   bool
	appendGen uint64 // records appended so far
	syncedGen uint64 // records covered by completed syncs

	syncCount   uint64
	appendCount uint64
}

var (
	_ Log         = (*MemLog)(nil)
	_ Compactable = (*MemLog)(nil)
)

// NewMemLog returns an empty in-memory log.
func NewMemLog(opts Options) *MemLog {
	l := &MemLog{opts: opts.withDefaults()}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Append implements Log.
func (l *MemLog) Append(record []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.appendCount++
	l.appendGen++
	l.unsynced = append(l.unsynced, append([]byte(nil), record...))
	if l.opts.Policy == SyncNone || l.opts.Policy == SyncDelayed {
		// Delayed/none: model an OS page cache that is continuously
		// flushed; records become "durable" immediately for recovery
		// purposes, but Sync never blocks. The durability window that a
		// real delayed-write system risks is the paper's stated trade.
		l.synced = append(l.synced, l.unsynced...)
		l.unsynced = l.unsynced[:0]
	}
	return nil
}

// Sync implements Log. Under SyncForced it blocks until every record
// appended before the call is durable, charging the configured latency.
// Concurrent callers share sync rounds (group commit).
func (l *MemLog) Sync() error {
	if l.opts.Policy != SyncForced {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	myGen := l.appendGen
	for {
		if l.closed {
			return ErrClosed
		}
		if l.syncedGen >= myGen {
			return nil // a shared round already covered our records
		}
		if !l.syncing {
			break
		}
		l.cond.Wait() // an in-flight round may cover us; recheck after
	}
	l.syncing = true
	covers := l.appendGen
	l.mu.Unlock()

	if l.opts.SyncLatency > 0 {
		time.Sleep(l.opts.SyncLatency)
	}

	l.mu.Lock()
	l.syncing = false
	l.syncCount++
	l.synced = append(l.synced, l.unsynced...)
	l.unsynced = l.unsynced[:0]
	if covers > l.syncedGen {
		l.syncedGen = covers
	}
	l.cond.Broadcast()
	if l.closed {
		return ErrClosed
	}
	return nil
}

// Records implements Log: only durable records are returned.
func (l *MemLog) Records() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	out := make([][]byte, len(l.synced))
	for i, r := range l.synced {
		out[i] = append([]byte(nil), r...)
	}
	return out, nil
}

// Crash simulates a power failure: the unsynced tail is lost. The log
// remains usable (it represents the disk, which survives).
func (l *MemLog) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.unsynced = l.unsynced[:0]
	l.syncedGen = l.appendGen
	l.closed = false
	l.cond.Broadcast()
}

// Rewrite implements Compactable: the new contents are immediately
// durable (a real implementation writes a sidecar file and renames).
func (l *MemLog) Rewrite(records [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.synced = l.synced[:0]
	for _, r := range records {
		l.synced = append(l.synced, append([]byte(nil), r...))
	}
	l.unsynced = l.unsynced[:0]
	l.syncedGen = l.appendGen
	return nil
}

// SyncCount returns the number of forced syncs performed (benchmarking).
func (l *MemLog) SyncCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncCount
}

// Close implements Log.
func (l *MemLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.cond.Broadcast()
	return nil
}

// FileLog is a file-backed Log using length-prefixed records and real
// fsync barriers.
type FileLog struct {
	opts Options
	path string

	mu     sync.Mutex
	f      *os.File
	closed bool
}

var (
	_ Log         = (*FileLog)(nil)
	_ Compactable = (*FileLog)(nil)
)

// OpenFileLog opens (or creates) a log file. A torn tail left by a crash
// mid-append is truncated away, so post-recovery appends continue from
// the last intact record instead of landing unreachably after garbage.
func OpenFileLog(path string, opts Options) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open log %q: %w", path, err)
	}
	valid, err := scanValidPrefix(f)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("scan log %q: %w", path, err)
	}
	if err := f.Truncate(valid); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("truncate torn tail of %q: %w", path, err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("seek log %q: %w", path, err)
	}
	return &FileLog{opts: opts.withDefaults(), path: path, f: f}, nil
}

// scanValidPrefix returns the byte length of the longest prefix of f that
// consists of complete length-prefixed records.
func scanValidPrefix(f *os.File) (int64, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, err
	}
	var valid int64
	var hdr [4]byte
	for {
		if valid+4 > size {
			return valid, nil // torn (or absent) header
		}
		if _, err := f.ReadAt(hdr[:], valid); err != nil {
			return 0, err
		}
		n := int64(binary.BigEndian.Uint32(hdr[:]))
		if valid+4+n > size {
			return valid, nil // torn record body
		}
		valid += 4 + n
	}
}

// Rewrite implements Compactable: write a sidecar, fsync it, and rename
// over the log so the replacement is atomic on crash.
func (l *FileLog) Rewrite(records [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	tmpPath := l.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("create %q: %w", tmpPath, err)
	}
	var hdr [4]byte
	for _, rec := range records {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(rec)))
		if _, err := tmp.Write(hdr[:]); err != nil {
			_ = tmp.Close()
			return fmt.Errorf("write sidecar: %w", err)
		}
		if _, err := tmp.Write(rec); err != nil {
			_ = tmp.Close()
			return fmt.Errorf("write sidecar: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("sync sidecar: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close sidecar: %w", err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		return fmt.Errorf("swap log: %w", err)
	}
	_ = l.f.Close()
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("reopen log: %w", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close()
		return fmt.Errorf("seek reopened log: %w", err)
	}
	l.f = f
	return nil
}

// Append implements Log.
func (l *FileLog) Append(record []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(record)))
	if _, err := l.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("append header: %w", err)
	}
	if _, err := l.f.Write(record); err != nil {
		return fmt.Errorf("append record: %w", err)
	}
	return nil
}

// Sync implements Log.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.opts.Policy != SyncForced {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("fsync: %w", err)
	}
	if l.opts.SyncLatency > 0 {
		time.Sleep(l.opts.SyncLatency)
	}
	return nil
}

// Records implements Log.
func (l *FileLog) Records() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("seek: %w", err)
	}
	var out [][]byte
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(l.f, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				break // torn header from a crash mid-append: discard tail
			}
			return nil, fmt.Errorf("read header: %w", err)
		}
		rec := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(l.f, rec); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // torn record: discard
			}
			return nil, fmt.Errorf("read record: %w", err)
		}
		out = append(out, rec)
	}
	if _, err := l.f.Seek(0, io.SeekEnd); err != nil {
		return nil, fmt.Errorf("seek end: %w", err)
	}
	return out, nil
}

// Close implements Log.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
