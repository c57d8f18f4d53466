package core

import (
	"testing"

	"evsdb/internal/types"
)

// Micro-benchmarks of the engine codec's hot kinds. EXPERIMENTS.md and
// BENCH_batching.json record the comparison against the JSON codec it
// replaced.

func benchBatch(n int) engineMsg {
	batch := make([]types.Action, n)
	for i := range batch {
		batch[i] = types.Action{
			ID:        types.ActionID{Server: "s03", Index: uint64(i + 1)},
			Type:      types.ActionUpdate,
			Semantics: types.SemStrict,
			GreenLine: 99,
			Client:    "client-7",
			ClientSeq: uint64(i),
			Update:    make([]byte, 200),
		}
	}
	return engineMsg{Kind: emBatch, Batch: batch}
}

func BenchmarkEncodeActionBinary(b *testing.B) {
	m := codecSpecimen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = encodeEngineMsg(m)
	}
}

// BenchmarkEncodeActionPooled is the multicast hot path: encode into a
// pooled buffer (steady state: zero allocations).
func BenchmarkEncodeActionPooled(b *testing.B) {
	m := codecSpecimen()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bp := encBufs.Get().(*[]byte)
		buf := appendEngineMsg((*bp)[:0], m)
		*bp = buf[:0]
		encBufs.Put(bp)
	}
}

func BenchmarkDecodeActionBinary(b *testing.B) {
	frame := encodeEngineMsg(codecSpecimen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeEngineMsg(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeBatch64 encodes a 64-action bundle — the emBatch frame
// one saturated submit window produces.
func BenchmarkEncodeBatch64(b *testing.B) {
	m := benchBatch(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = encodeEngineMsg(m)
	}
}

func BenchmarkDecodeBatch64(b *testing.B) {
	frame := encodeEngineMsg(benchBatch(64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeEngineMsg(frame); err != nil {
			b.Fatal(err)
		}
	}
}
